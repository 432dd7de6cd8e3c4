package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
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

// TestTranslateCacheHit pins the cache contract: the second identical
// upload is answered from the content cache with a byte-identical body,
// and the hit/miss counters account for both requests.
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

	// Re-encode through a different PNG writer path: same pixels, so the
	// content hash must still hit.
	resp2 := postPNG(t, ts.URL, png)
	body2 := readBody(t, resp2)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("second request: %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Error("cache hit body is not byte-identical to the first response")
	}
	if hits, misses := s.cacheHits.Value(), s.cacheMisses.Value(); hits != 1 || misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
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
// tdserve, batch.Process or a job — a fresh server over that store
// answers it exactly as a cold server does, twice: first from the store,
// then from the LRU the store hit promoted it into. A refused picture
// answers 400 with the cold body on /v1/translate, 400 as a batch item
// and 400 on /v1/verify by ref.
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
		want := readBody(t, resp)
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

				// Each endpoint asks a server with an empty LRU twice.
				s, ts := newTestServer(t, Config{Workers: 1, Store: st})
				for i := 0; i < 2; i++ {
					resp := postPNG(t, ts.URL, pic.png)
					body := readBody(t, resp)
					if resp.StatusCode != pic.status || !bytes.Equal(body, want) {
						t.Errorf("translate %d: %d %s, want the cold %d %s", i, resp.StatusCode, body, pic.status, want)
					}
					if got := resp.Header.Get("X-Cache"); got != "hit" {
						t.Errorf("translate %d: X-Cache = %q, want hit", i, got)
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
	r := batch.Process(context.Background(), pipe, batch.Item{Name: "s", Image: val[4].Image},
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

// TestBatchEndpoint posts a multipart batch mixing a valid picture, a
// duplicate (cache hit) and a malformed part, and checks the per-item
// results keep part order and per-item statuses.
func TestBatchEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, val := fixture(t)
	png0 := pngBytes(t, val[0])

	buildBatch := func(parts map[string][]byte, order []string) (*bytes.Buffer, string) {
		var buf bytes.Buffer
		mw := multipart.NewWriter(&buf)
		for _, name := range order {
			fw, err := mw.CreateFormFile(name, name+".png")
			if err != nil {
				t.Fatal(err)
			}
			fw.Write(parts[name])
		}
		mw.Close()
		return &buf, mw.FormDataContentType()
	}

	body, ctype := buildBatch(map[string][]byte{
		"a": png0,
		"b": []byte("garbage"),
		"c": pngBytes(t, val[1]),
	}, []string{"a", "b", "c"})
	resp, err := http.Post(ts.URL+"/v1/translate/batch", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Results []ItemResult `json:"results"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("batch response not JSON: %v", err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("results = %d, want 3", len(out.Results))
	}
	if out.Results[0].Status != http.StatusOK || out.Results[0].TranslateResponse == nil || out.Results[0].SPO == nil {
		t.Errorf("item a: %+v", out.Results[0])
	}
	if out.Results[1].Status != http.StatusBadRequest || out.Results[1].Error == "" {
		t.Errorf("item b: %+v", out.Results[1])
	}
	if out.Results[2].Status != http.StatusOK {
		t.Errorf("item c: %+v", out.Results[2])
	}
	if out.Results[0].Name != "a.png" || out.Results[1].Name != "b.png" {
		t.Errorf("part order/names wrong: %q %q", out.Results[0].Name, out.Results[1].Name)
	}

	// Same picture again: answered from the cache.
	body, ctype = buildBatch(map[string][]byte{"a": png0}, []string{"a"})
	resp, err = http.Post(ts.URL+"/v1/translate/batch", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	raw = readBody(t, resp)
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 1 || !out.Results[0].Cached {
		t.Errorf("repeat batch item not cached: %s", raw)
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
