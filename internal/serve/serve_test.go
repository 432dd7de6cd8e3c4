package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"image/png"
	"io"
	"math/rand"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/diag"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/jobs"
	"tdmagic/internal/obs"
	"tdmagic/internal/store"
	"tdmagic/internal/tdgen"
)

// Shared tiny pipeline + samples, trained once per test binary.
var (
	fixtureOnce sync.Once
	fixturePipe *core.Pipeline
	fixtureVal  []*dataset.Sample
	fixtureErr  error
)

func fixture(t *testing.T) (*core.Pipeline, []*dataset.Sample) {
	t.Helper()
	fixtureOnce.Do(func() {
		gt := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(100)))
		train, err := gt.GenerateN(40)
		if err != nil {
			fixtureErr = err
			return
		}
		fixturePipe, fixtureErr = core.Train(rand.New(rand.NewSource(1)), train, core.DefaultTrainConfig())
		if fixtureErr != nil {
			return
		}
		g := tdgen.New(tdgen.DefaultConfig(tdgen.G1), rand.New(rand.NewSource(300)))
		fixtureVal, fixtureErr = g.GenerateN(6)
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixturePipe, fixtureVal
}

// pngBytes encodes a sample picture.
func pngBytes(t *testing.T, s *dataset.Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Image.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	pipe, _ := fixture(t)
	// The pipeline is shared across tests but each Server wires its own
	// registry; reset so this server starts from a clean metric bundle.
	pipe.Metrics = nil
	s := New(pipe, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postPNG(t *testing.T, url string, body []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/translate", "image/png", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readBody(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reencode decodes a PNG and writes it again at the fastest zlib level:
// the same pixels in different bytes.
func reencode(t *testing.T, pic []byte) []byte {
	t.Helper()
	img, err := png.Decode(bytes.NewReader(pic))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := (&png.Encoder{CompressionLevel: png.BestSpeed}).Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf.Bytes(), pic) {
		t.Fatal("re-encoding produced the same bytes")
	}
	return buf.Bytes()
}

// TestTranslateCacheHit pins the cache contract: a re-encoding of an
// uploaded picture (same pixels, other bytes) is answered from the
// content cache with a byte-identical body and the same input hash, a
// repeat of the original bytes is answered by the raw tier, and the
// hit/miss counters account for every request.
func TestTranslateCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	_, val := fixture(t)
	png := pngBytes(t, val[0])

	resp1 := postPNG(t, ts.URL, png)
	body1 := readBody(t, resp1)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	var tr TranslateResponse
	if err := json.Unmarshal(body1, &tr); err != nil {
		t.Fatalf("response not JSON: %v", err)
	}
	if tr.SPO == nil || tr.Spec == "" {
		t.Errorf("response missing spo/spec: %s", body1)
	}

	// The re-encoding misses the raw tier, so the pixel hash must hit;
	// the original bytes again are answered by the raw tier.
	for i, pic := range [][]byte{reencode(t, png), png} {
		resp := postPNG(t, ts.URL, pic)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Cache"); got != "hit" {
			t.Errorf("repeat %d: X-Cache = %q, want hit", i, got)
		}
		if !bytes.Equal(body1, body) {
			t.Errorf("repeat %d: cache hit body is not byte-identical to the first response", i)
		}
		if got, want := resp.Header.Get("X-Input-Hash"), resp1.Header.Get("X-Input-Hash"); got != want || got == "" {
			t.Errorf("repeat %d: X-Input-Hash = %q, want %q", i, got, want)
		}
	}
	if hits, misses := s.cacheHits.Value(), s.cacheMisses.Value(); hits != 2 || misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 2/1", hits, misses)
	}
}

// refusedPNG encodes a 2x2 picture: it decodes fine, but the pipeline
// refuses it before any stage runs.
func refusedPNG(t *testing.T) []byte {
	t.Helper()
	_, val := fixture(t)
	tiny := val[0].Image.Crop(val[0].Image.Bounds()).ScaleTo(2, 2)
	var buf bytes.Buffer
	if err := tiny.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPersistentStoreSurvivesRestart pins the second cache level and its
// parity across writers: whoever put a picture's artifact in the store —
// tdserve, batch.Process or a job — also left an alias for its bytes, and
// a fresh server over that store answers the bytes exactly as a cold
// server does, twice: first through the alias from the store, then
// through the raw index from the LRU the store hit promoted it into. A
// refused picture answers 400 with the cold body on /v1/translate, 400 as
// a batch item and 400 on /v1/verify by ref.
func TestPersistentStoreSurvivesRestart(t *testing.T) {
	pipe, val := fixture(t)
	ctx := context.Background()
	writers := []struct {
		name  string
		write func(t *testing.T, st *store.Store, png []byte)
	}{
		{"tdserve", func(t *testing.T, st *store.Store, png []byte) {
			s, ts := newTestServer(t, Config{Workers: 1, Store: st})
			resp := postPNG(t, ts.URL, png)
			readBody(t, resp)
			if got := resp.Header.Get("X-Cache"); got != "miss" {
				t.Errorf("writer X-Cache = %q, want miss", got)
			}
			if puts := s.storePuts.Value(); puts != 1 {
				t.Errorf("store puts = %d, want 1", puts)
			}
		}},
		{"batch", func(t *testing.T, st *store.Store, png []byte) {
			r := batch.Process(ctx, pipe, batch.Item{Name: "p", Open: func() (io.ReadCloser, error) {
				return io.NopCloser(bytes.NewReader(png)), nil
			}}, batch.Options{Store: st, Config: pipe.ConfigHash()})
			if r.Err != nil || !r.Stored {
				t.Fatalf("batch.Process: err=%v stored=%v", r.Err, r.Stored)
			}
		}},
		{"job", func(t *testing.T, st *store.Store, png []byte) {
			svc, err := jobs.Open(t.TempDir(), pipe, st, jobs.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close(ctx)
			sn, err := svc.Submit([]jobs.ItemSpec{{Name: "p", Data: bytes.NewReader(png)}})
			if err != nil {
				t.Fatal(err)
			}
			if sn, err = svc.Wait(ctx, sn.ID); err != nil || sn.State != jobs.StateDone {
				t.Fatalf("job: state %s err %v", sn.State, err)
			}
		}},
	}
	pictures := []struct {
		name   string
		png    []byte
		status int
	}{
		{"translatable", pngBytes(t, val[0]), http.StatusOK},
		{"refused", refusedPNG(t), http.StatusBadRequest},
	}
	for _, pic := range pictures {
		_, cold := newTestServer(t, Config{Workers: 1})
		resp := postPNG(t, cold.URL, pic.png)
		want, wantHash := readBody(t, resp), resp.Header.Get("X-Input-Hash")
		if resp.StatusCode != pic.status {
			t.Fatalf("%s: cold status %d, want %d: %s", pic.name, resp.StatusCode, pic.status, want)
		}
		img, err := imgproc.DecodePNG(bytes.NewReader(pic.png))
		if err != nil {
			t.Fatal(err)
		}
		ref := store.HashImage(img).Hex()

		for _, w := range writers {
			t.Run(w.name+"/"+pic.name, func(t *testing.T) {
				st, err := store.Open(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				w.write(t, st, pic.png)
				if input, ok := st.GetAlias(store.HashBytes(pic.png)); !ok || input.Hex() != ref {
					t.Errorf("alias = %s %v, want %s", input.Hex(), ok, ref)
				}

				// Each endpoint asks a server with an empty LRU twice.
				rec := obs.NewRecorder(obs.RecorderConfig{})
				s, ts := newTestServer(t, Config{Workers: 1, Store: st, Flight: rec})
				for i := 0; i < 2; i++ {
					resp := postPNG(t, ts.URL, pic.png)
					body := readBody(t, resp)
					if resp.StatusCode != pic.status || !bytes.Equal(body, want) {
						t.Errorf("translate %d: %d %s, want the cold %d %s", i, resp.StatusCode, body, pic.status, want)
					}
					if got := resp.Header.Get("X-Cache"); got != "hit" {
						t.Errorf("translate %d: X-Cache = %q, want hit", i, got)
					}
					if got := resp.Header.Get("X-Input-Hash"); got != wantHash {
						t.Errorf("translate %d: X-Input-Hash = %q, want the cold %q", i, got, wantHash)
					}
					if span := cacheSpan(t, rec, resp.Header.Get("X-Request-ID")); span["raw"] != 1 || span["store"] != int64(1-i) {
						t.Errorf("translate %d: cache span %v, want raw, from the store then the LRU", i, span)
					}
				}
				if sh, ch := s.storeHits.Value(), s.cacheHits.Value(); sh != 1 || ch != 1 {
					t.Errorf("store hits %d, LRU hits %d: want the store, then the LRU", sh, ch)
				}
				if pic.status == http.StatusOK {
					return
				}

				_, ts = newTestServer(t, Config{Workers: 1, Store: st})
				for i := 0; i < 2; i++ {
					body, ctype := multipartJob(t, []string{"p.png"}, [][]byte{pic.png})
					resp, err := http.Post(ts.URL+"/v1/translate/batch", ctype, body)
					if err != nil {
						t.Fatal(err)
					}
					var out struct {
						Results []ItemResult `json:"results"`
					}
					if err := json.Unmarshal(readBody(t, resp), &out); err != nil || len(out.Results) != 1 {
						t.Fatalf("batch %d: %v %+v", i, err, out)
					}
					if got := out.Results[0]; got.Status != http.StatusBadRequest || got.TranslateResponse != nil {
						t.Errorf("batch %d: item %+v, want a 400 without an SPO", i, got)
					}
				}

				_, ts = newTestServer(t, Config{Workers: 1, Store: st})
				for i := 0; i < 2; i++ {
					resp := postVerify(t, ts.URL, []vpart{{"ref", []byte(ref)}, {"vcd", []byte("$enddefinitions $end\n")}})
					if body := readBody(t, resp); resp.StatusCode != http.StatusBadRequest || !bytes.Equal(body, want) {
						t.Errorf("verify by ref %d: %d %s, want the cold 400 %s", i, resp.StatusCode, body, want)
					}
				}
			})
		}
	}
}

// TestAliasFollowsStoredArtifact pins the alias invariant on tdserve:
// when the artifact's Put fails the upload still translates, but no alias
// is written, and a repeat of its bytes is answered from the LRU through
// the in-memory raw index; once Puts succeed, each alias is written after
// its artifact.
func TestAliasFollowsStoredArtifact(t *testing.T) {
	_, val := fixture(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(obs.RecorderConfig{})
	s, ts := newTestServer(t, Config{Workers: 1, Store: st, Flight: rec})
	var (
		mu      sync.Mutex
		ops     []string
		failPut = true
	)
	store.FaultHook = func(op, _ string) error {
		mu.Lock()
		defer mu.Unlock()
		ops = append(ops, op)
		if op == "put" && failPut {
			return errors.New("disk full")
		}
		return nil
	}
	defer func() { store.FaultHook = nil }()

	unstored := pngBytes(t, val[0])
	for i, want := range []string{"miss", "hit"} {
		resp := postPNG(t, ts.URL, unstored)
		if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
			t.Fatalf("upload %d: %d %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("upload %d: X-Cache = %q, want %q", i, got, want)
		}
		if i == 1 {
			if span := cacheSpan(t, rec, resp.Header.Get("X-Request-ID")); span["raw"] != 1 || span["store"] != 0 {
				t.Errorf("repeat: cache span %v, want the raw index and the LRU", span)
			}
		}
	}
	if input, ok := st.GetAlias(store.HashBytes(unstored)); ok {
		t.Fatalf("alias %s written for an artifact that was never stored", input.Hex())
	}
	if puts, hits := s.storePuts.Value(), s.cacheHits.Value(); puts != 0 || hits != 1 {
		t.Errorf("store puts %d, LRU hits %d, want 0 and 1", puts, hits)
	}

	mu.Lock()
	failPut, ops = false, nil
	mu.Unlock()
	stored := pngBytes(t, val[1])
	resp := postPNG(t, ts.URL, stored)
	readBody(t, resp)
	mu.Lock()
	defer mu.Unlock()
	if fmt.Sprint(ops) != "[put alias]" {
		t.Errorf("store writes %v, want the artifact, then its alias", ops)
	}
	if input, ok := st.GetAlias(store.HashBytes(stored)); !ok || input.Hex() != resp.Header.Get("X-Input-Hash") {
		t.Errorf("alias = %s %v, want %s", input.Hex(), ok, resp.Header.Get("X-Input-Hash"))
	}
}

// TestQueueOverflow429 fills the single worker slot and the one-deep wait
// queue, then asserts the next request is shed with 429 + Retry-After
// while the admitted requests still complete — and that hits bypass the
// gate: a picture in the LRU and one only in the store each answer 200 at
// once while the slot and the queue stay full.
func TestQueueOverflow429(t *testing.T) {
	pipe, val := fixture(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, Store: st})
	inLRU, inStore := pngBytes(t, val[3]), pngBytes(t, val[4])
	readBody(t, postPNG(t, ts.URL, inLRU))
	r := batch.Process(context.Background(), pipe, batch.Item{Name: "s", Load: func() (*imgproc.Gray, error) { return val[4].Image, nil }},
		batch.Options{Store: st, Config: pipe.ConfigHash()})
	if r.Err != nil || !r.Stored {
		t.Fatalf("seed the store: err=%v stored=%v", r.Err, r.Stored)
	}

	started := make(chan struct{}, 4)
	block := make(chan struct{})
	translateHook = func() {
		started <- struct{}{}
		<-block
	}
	defer func() { translateHook = nil }()

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 2)
	post := func(i int) {
		resp := postPNG(t, ts.URL, pngBytes(t, val[i]))
		results <- result{resp.StatusCode, readBody(t, resp)}
	}

	go post(0)
	<-started // worker slot occupied

	go post(1)
	deadline := time.Now().Add(5 * time.Second)
	for s.queued.Value() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
		time.Sleep(time.Millisecond)
	}

	// Queue is full: this one must be rejected immediately.
	resp := postPNG(t, ts.URL, pngBytes(t, val[2]))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("429 body not an error payload: %s", body)
	}
	if s.rejections.Value() != 1 {
		t.Errorf("rejections = %d, want 1", s.rejections.Value())
	}

	for name, png := range map[string][]byte{"LRU": inLRU, "store": inStore} {
		resp := postPNG(t, ts.URL, png)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Errorf("%s hit under a full queue: %d X-Cache=%q %s", name, resp.StatusCode, resp.Header.Get("X-Cache"), body)
		}
	}
	if s.rejections.Value() != 1 {
		t.Errorf("rejections after hits = %d, want still 1", s.rejections.Value())
	}

	close(block)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.status != http.StatusOK {
			t.Errorf("admitted request finished with %d: %s", r.status, r.body)
		}
	}
}

// TestGracefulDrain starts a real listener, parks a request inside a
// worker, and shuts down: Shutdown must wait for the in-flight request,
// which must complete successfully, and the listener must then be closed.
func TestGracefulDrain(t *testing.T) {
	pipe, val := fixture(t)
	pipe.Metrics = nil
	s := New(pipe, Config{Workers: 1})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr.String()

	started := make(chan struct{}, 1)
	block := make(chan struct{})
	translateHook = func() {
		started <- struct{}{}
		<-block
	}
	defer func() { translateHook = nil }()

	type result struct {
		status int
		err    error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post(url+"/v1/translate", "image/png", bytes.NewReader(pngBytes(t, val[0])))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		reqDone <- result{status: resp.StatusCode}
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not return while the request is still translating.
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v before in-flight request finished", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(block)
	if r := <-reqDone; r.err != nil || r.status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status=%d err=%v", r.status, r.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Post(url+"/v1/translate", "image/png", bytes.NewReader(pngBytes(t, val[1]))); err == nil {
		t.Error("listener still accepting after Shutdown")
	}
}

// fakePNG builds a syntactically plausible PNG prefix declaring the given
// dimensions (signature + IHDR), enough to exercise the header screen.
func fakePNG(w, h uint32) []byte {
	buf := make([]byte, 0, 33)
	buf = append(buf, 0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n')
	ihdr := make([]byte, 13)
	binary.BigEndian.PutUint32(ihdr[0:4], w)
	binary.BigEndian.PutUint32(ihdr[4:8], h)
	ihdr[8] = 8 // bit depth
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], 13)
	buf = append(buf, lenb[:]...)
	buf = append(buf, []byte("IHDR")...)
	buf = append(buf, ihdr...)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(append([]byte("IHDR"), ihdr...)))
	buf = append(buf, crc[:]...)
	return buf
}

// TestBadInputs400 pins the client-error contract: malformed bodies,
// oversized bodies, pixel bombs and degenerate pictures all return 400
// with a diag-style JSON payload — never a 500.
func TestBadInputs400(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 1 << 20})

	checkError := func(t *testing.T, resp *http.Response, wantStage string) {
		t.Helper()
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d (%s), want 400", resp.StatusCode, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil {
			t.Fatalf("error payload not JSON: %v: %s", err, body)
		}
		if er.Error == "" {
			t.Errorf("empty error message: %s", body)
		}
		if wantStage != "" {
			if len(er.Diags) == 0 || er.Diags[0].Stage != wantStage || er.Diags[0].Severity != diag.Error {
				t.Errorf("missing %s-stage error diagnostic: %s", wantStage, body)
			}
		}
	}

	t.Run("garbage", func(t *testing.T) {
		checkError(t, postPNG(t, ts.URL, []byte("not a png at all")), diag.StageInput)
	})
	t.Run("truncated", func(t *testing.T) {
		checkError(t, postPNG(t, ts.URL, fakePNG(100, 100)), diag.StageInput)
	})
	t.Run("pixel-bomb", func(t *testing.T) {
		// 1 GB declared raster in a tiny body: refused from the header.
		checkError(t, postPNG(t, ts.URL, fakePNG(1<<15, 1<<15)), diag.StageInput)
	})
	t.Run("oversized-body", func(t *testing.T) {
		big := make([]byte, 1<<20+1)
		copy(big, fakePNG(64, 64))
		checkError(t, postPNG(t, ts.URL, big), diag.StageInput)
	})
	t.Run("degenerate-picture", func(t *testing.T) {
		// A real 2x2 PNG decodes fine but the pipeline refuses it; that
		// must surface as 400, not 500 or an empty 200.
		var buf bytes.Buffer
		tiny := fixtureVal[0].Image.Crop(fixtureVal[0].Image.Bounds())
		tiny = tiny.ScaleTo(2, 2)
		if err := tiny.EncodePNG(&buf); err != nil {
			t.Fatal(err)
		}
		checkError(t, postPNG(t, ts.URL, buf.Bytes()), diag.StageInput)
	})
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/translate")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET = %d, want 405", resp.StatusCode)
		}
		readBody(t, resp)
	})
	if s.badRequests.Value() == 0 {
		t.Error("bad-request counter never moved")
	}
}

// multipartBody builds a multipart/form-data upload with one file part
// per picture, named "<name>.png" in the given order.
func multipartBody(t *testing.T, names []string, pics map[string][]byte) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, name := range names {
		fw, err := mw.CreateFormFile(name, name+".png")
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(pics[name])
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), mw.FormDataContentType()
}

// batchCounters are the counters a batch request can move.
type batchCounters struct {
	badRequests, rejections, batchImages, cacheHits int64
}

func countersOf(s *Server) batchCounters {
	return batchCounters{s.badRequests.Value(), s.rejections.Value(), s.batchImages.Value(), s.cacheHits.Value()}
}

// TestBatchEndpoint pins the batch endpoint's contract, one upload per
// row: the status, the body, and how far the counters moved. Entries keep
// part order and names; a part that is not a picture answers its own 400;
// a refused upload answers 400 for the whole batch.
func TestBatchEndpoint(t *testing.T) {
	_, val := fixture(t)
	pics := map[string][]byte{"garbage": []byte("garbage")}
	for i, smp := range val {
		pics[fmt.Sprint("v", i)] = pngBytes(t, smp)
	}
	type response struct {
		Results []ItemResult `json:"results"`
	}
	decode := func(t *testing.T, raw []byte) response {
		t.Helper()
		var out response
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("batch response not JSON: %v: %s", err, raw)
		}
		return out
	}
	wantError := func(prefix string) func(*testing.T, []byte) {
		return func(t *testing.T, raw []byte) {
			var er ErrorResponse
			if err := json.Unmarshal(raw, &er); err != nil || !strings.HasPrefix(er.Error, prefix) {
				t.Errorf("error body = %s, want an error starting %q", raw, prefix)
			}
		}
	}

	three, threeType := multipartBody(t, []string{"v0", "garbage", "v1"}, pics)
	one, oneType := multipartBody(t, []string{"v2"}, pics)
	repeat, repeatType := multipartBody(t, []string{"v0"}, pics)
	empty, emptyType := multipartBody(t, nil, pics)
	// 2×Workers+3 parts with Workers 2: every fresh picture plus one
	// garbage part in the middle.
	manyNames := []string{"v0", "v1", "v2", "garbage", "v3", "v4", "v5"}
	many, manyType := multipartBody(t, manyNames, pics)
	// Cut the upload off halfway through its second part.
	two, twoType := multipartBody(t, []string{"v0", "v1"}, pics)
	cut := two[:bytes.Index(two, pics["v1"])+len(pics["v1"])/2]

	for _, tc := range []struct {
		name  string
		cfg   Config
		body  []byte
		ctype string
		// setup runs before the upload and returns its cleanup.
		setup      func(t *testing.T, s *Server, ts *httptest.Server) func()
		wantStatus int
		wantBody   string // exact body, when set
		check      func(t *testing.T, raw []byte)
		want       batchCounters // counter deltas
	}{{
		name: "mixed", cfg: Config{Workers: 2}, body: three, ctype: threeType,
		wantStatus: http.StatusOK,
		check: func(t *testing.T, raw []byte) {
			out := decode(t, raw)
			if len(out.Results) != 3 {
				t.Fatalf("results = %d, want 3", len(out.Results))
			}
			if r := out.Results[0]; r.Status != http.StatusOK || r.TranslateResponse == nil || r.SPO == nil {
				t.Errorf("item v0: %+v", r)
			}
			if r := out.Results[1]; r.Status != http.StatusBadRequest || r.Error == "" {
				t.Errorf("item garbage: %+v", r)
			}
			if r := out.Results[2]; r.Status != http.StatusOK {
				t.Errorf("item v1: %+v", r)
			}
			if out.Results[0].Name != "v0.png" || out.Results[1].Name != "garbage.png" {
				t.Errorf("part order/names wrong: %q %q", out.Results[0].Name, out.Results[1].Name)
			}
		},
		want: batchCounters{batchImages: 3},
	}, {
		name: "repeat", cfg: Config{Workers: 2}, body: repeat, ctype: repeatType,
		setup: func(t *testing.T, s *Server, ts *httptest.Server) func() {
			resp, err := http.Post(ts.URL+"/v1/translate/batch", threeType, bytes.NewReader(three))
			if err != nil {
				t.Fatal(err)
			}
			readBody(t, resp)
			return func() {}
		},
		wantStatus: http.StatusOK,
		check: func(t *testing.T, raw []byte) {
			if out := decode(t, raw); len(out.Results) != 1 || !out.Results[0].Cached {
				t.Errorf("repeat batch item not cached: %s", raw)
			}
		},
		want: batchCounters{batchImages: 1, cacheHits: 1},
	}, {
		name: "part-cap", cfg: Config{Workers: 2, MaxBatchParts: 2}, body: three, ctype: threeType,
		wantStatus: http.StatusBadRequest,
		wantBody:   `{"error":"batch exceeds 2 pictures"}`,
		want:       batchCounters{badRequests: 1},
	}, {
		name: "cut-off", cfg: Config{Workers: 2}, body: cut, ctype: twoType,
		wantStatus: http.StatusBadRequest,
		check:      wantError("read multipart body:"),
		want:       batchCounters{badRequests: 1},
	}, {
		name: "not-multipart", cfg: Config{Workers: 2}, body: pics["v0"], ctype: "image/png",
		wantStatus: http.StatusBadRequest,
		check:      wantError("content type must be multipart/form-data"),
		want:       batchCounters{badRequests: 1},
	}, {
		name: "queue-full", cfg: Config{Workers: 1, QueueDepth: 1}, body: one, ctype: oneType,
		setup: func(t *testing.T, s *Server, ts *httptest.Server) func() {
			started := make(chan struct{}, 1)
			block := make(chan struct{})
			translateHook = func() {
				started <- struct{}{}
				<-block
			}
			done := make(chan struct{}, 2)
			post := func(name string) {
				readBody(t, postPNG(t, ts.URL, pics[name]))
				done <- struct{}{}
			}
			go post("v0")
			<-started // the one worker slot is held
			go post("v1")
			deadline := time.Now().Add(5 * time.Second)
			for s.queued.Value() != 1 {
				if time.Now().After(deadline) {
					t.Fatal("single request never queued")
				}
				time.Sleep(time.Millisecond)
			}
			return func() {
				close(block)
				<-done
				<-done
				translateHook = nil
			}
		},
		wantStatus: http.StatusOK,
		check: func(t *testing.T, raw []byte) {
			out := decode(t, raw)
			if len(out.Results) != 1 || out.Results[0].Status != http.StatusTooManyRequests ||
				out.Results[0].Error != "translation queue full" {
				t.Errorf("part under a full queue: %s", raw)
			}
		},
		want: batchCounters{rejections: 1, batchImages: 1},
	}, {
		name: "many-parts", cfg: Config{Workers: 2}, body: many, ctype: manyType,
		wantStatus: http.StatusOK,
		check: func(t *testing.T, raw []byte) {
			out := decode(t, raw)
			if len(out.Results) != len(manyNames) {
				t.Fatalf("results = %d, want %d", len(out.Results), len(manyNames))
			}
			for i, r := range out.Results {
				if r.Name != manyNames[i]+".png" {
					t.Errorf("entry %d is %q, want %q", i, r.Name, manyNames[i]+".png")
				}
				if manyNames[i] != "garbage" {
					if r.Status != http.StatusOK || r.SPO == nil {
						t.Errorf("entry %s: %+v", r.Name, r)
					}
					continue
				}
				if r.Status != http.StatusBadRequest || r.Error != "body is not a PNG" ||
					len(r.Diags) != 1 || r.Diags[0].Stage != diag.StageInput || r.Diags[0].Severity != diag.Error {
					t.Errorf("garbage entry: %+v", r)
				}
			}
		},
		want: batchCounters{batchImages: int64(len(manyNames))},
	}, {
		name: "empty", cfg: Config{Workers: 2}, body: empty, ctype: emptyType,
		wantStatus: http.StatusOK,
		wantBody:   `{"results":[]}`,
	}} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, tc.cfg)
			if tc.setup != nil {
				defer tc.setup(t, s, ts)()
			}
			before := countersOf(s)
			resp, err := http.Post(ts.URL+"/v1/translate/batch", tc.ctype, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw := readBody(t, resp)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d (%s), want %d", resp.StatusCode, raw, tc.wantStatus)
			}
			if tc.wantBody != "" && string(bytes.TrimSpace(raw)) != tc.wantBody {
				t.Errorf("body = %s, want %s", raw, tc.wantBody)
			}
			if tc.check != nil {
				tc.check(t, raw)
			}
			after := countersOf(s)
			got := batchCounters{after.badRequests - before.badRequests, after.rejections - before.rejections,
				after.batchImages - before.batchImages, after.cacheHits - before.cacheHits}
			if got != tc.want {
				t.Errorf("counter deltas = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestHealthzAndMetrics checks the liveness probe and that one scrape
// carries both the serve-level and the pipeline-level counters.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, val := fixture(t)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb := readBody(t, resp)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(hb), `"status":"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, hb)
	}

	readBody(t, postPNG(t, ts.URL, pngBytes(t, val[0])))

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb := string(readBody(t, resp))
	for _, want := range []string{
		"tdserve_requests_total 1",
		"tdserve_cache_misses_total 1",
		"tdmagic_translations_total 1",
		"tdmagic_translate_seconds_bucket",
		"# TYPE tdserve_queued_requests gauge",
	} {
		if !strings.Contains(mb, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestLRUCacheEviction exercises the LRU through the service: capacity
// bounds, recency order, disabled mode.
func TestLRUCacheEviction(t *testing.T) {
	_, val := fixture(t)
	s, ts := newTestServer(t, Config{Workers: 1, CacheSize: 2})
	check := func(url string, pic int, want string) {
		t.Helper()
		resp := postPNG(t, url, pngBytes(t, val[pic]))
		readBody(t, resp)
		if got := resp.Header.Get("X-Cache"); got != want {
			t.Errorf("picture %d: X-Cache = %q, want %s", pic, got, want)
		}
	}
	check(ts.URL, 0, "miss")
	check(ts.URL, 1, "miss")
	check(ts.URL, 0, "hit")
	check(ts.URL, 2, "miss") // evicts picture 1 (least recently used)
	check(ts.URL, 0, "hit")
	check(ts.URL, 1, "miss")
	if n := s.resolver.LRULen(); n != 2 {
		t.Errorf("LRU holds %d entries, want 2", n)
	}

	_, off := newTestServer(t, Config{Workers: 1, CacheSize: -1})
	check(off.URL, 0, "miss")
	check(off.URL, 0, "miss")
}

// TestConcurrentMixedTraffic hammers the service with concurrent repeat
// and unique requests; run under -race this doubles as the data-race check
// on the cache, the pool and the shared pipeline.
func TestConcurrentMixedTraffic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	_, val := fixture(t)
	pngs := make([][]byte, len(val))
	for i := range val {
		pngs[i] = pngBytes(t, val[i])
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				resp, err := http.Post(ts.URL+"/v1/translate", "image/png",
					bytes.NewReader(pngs[(g+i)%len(pngs)]))
				if err != nil {
					errs <- err.Error()
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", resp.StatusCode, b)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
