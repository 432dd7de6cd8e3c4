package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmagic/internal/monitor"
	"tdmagic/internal/obs"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
	"tdmagic/internal/vcd"
)

// vpart is one ordered multipart field of a verify request.
type vpart struct {
	name string
	data []byte
}

// verifyBody assembles a multipart/form-data body with the parts in the
// given wire order (order matters: /v1/verify streams the vcd part).
func verifyBody(t *testing.T, parts []vpart) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, p := range parts {
		var (
			w   io.Writer
			err error
		)
		if p.name == "image" || p.name == "vcd" {
			w, err = mw.CreateFormFile(p.name, p.name)
		} else {
			w, err = mw.CreateFormField(p.name)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(p.data); err != nil {
			t.Fatal(err)
		}
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return &buf, mw.FormDataContentType()
}

// postVerify POSTs an ordered multipart body to /v1/verify.
func postVerify(t *testing.T, url string, parts []vpart) *http.Response {
	t.Helper()
	body, ctype := verifyBody(t, parts)
	resp, err := http.Post(url+"/v1/verify", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// verifyStream is a parsed NDJSON verification response.
type verifyStream struct {
	Spec     verifySpecLine
	Verdicts []monitor.Verdict
	Summary  verifySummaryLine
	Errors   []verifyErrorLine
}

// readVerifyStream decodes the NDJSON lines of a 200 verify response.
func readVerifyStream(t *testing.T, resp *http.Response) verifyStream {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("verify status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
	var out verifyStream
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var typ struct {
			Type string `json:"type"`
		}
		line := sc.Bytes()
		if err := json.Unmarshal(line, &typ); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		switch typ.Type {
		case "spec":
			if err := json.Unmarshal(line, &out.Spec); err != nil {
				t.Fatal(err)
			}
		case "verdict":
			var v monitor.Verdict
			if err := json.Unmarshal(line, &v); err != nil {
				t.Fatal(err)
			}
			out.Verdicts = append(out.Verdicts, v)
		case "summary":
			if err := json.Unmarshal(line, &out.Summary); err != nil {
				t.Fatal(err)
			}
		case "error":
			var e verifyErrorLine
			if err := json.Unmarshal(line, &e); err != nil {
				t.Fatal(err)
			}
			out.Errors = append(out.Errors, e)
		default:
			t.Fatalf("unknown line type %q", typ.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// goldenSample translates fixture samples until it finds one whose SPO
// SynthesizeTrace can realize (consecutive per-signal edge indices) with
// at least one cross-signal constraint, and returns the encoded PNG plus
// the translated SPO.
func goldenSample(t *testing.T, url string) ([]byte, *spo.SPO, string) {
	t.Helper()
	_, val := fixture(t)
	for _, s := range val {
		png := pngBytes(t, s)
		resp := postPNG(t, url, png)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			continue
		}
		hash := resp.Header.Get("X-Input-Hash")
		if hash == "" {
			t.Fatal("translate response missing X-Input-Hash")
		}
		var tr TranslateResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		p := tr.SPO
		if p == nil || len(p.Constraints) == 0 {
			continue
		}
		if _, err := monitor.SynthesizeTrace(&monitor.Spec{SPO: p}, 0); err != nil {
			continue
		}
		c := p.Constraints[0]
		if p.Nodes[c.Src].Signal == p.Nodes[c.Dst].Signal {
			continue
		}
		return png, p, hash
	}
	t.Skip("no fixture sample translates to a synthesizable SPO")
	return nil, nil, ""
}

// synthVCD renders a satisfying dump for the SPO, optionally shifting one
// signal's waveform by delta seconds.
func synthVCD(t *testing.T, p *spo.SPO, shiftSignal string, delta float64) []byte {
	t.Helper()
	tr, err := monitor.SynthesizeTrace(&monitor.Spec{SPO: p}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if shiftSignal != "" {
		sig := tr.Signal(shiftSignal)
		if sig == nil {
			t.Fatalf("signal %q not in synthesized trace", shiftSignal)
		}
		for i := range sig.Points {
			sig.Points[i].T += delta
		}
	}
	var buf bytes.Buffer
	if err := vcd.Write(&buf, tr, "1us"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVerifyGoldenEndToEnd closes the full loop: render a synthetic TD,
// translate it over HTTP, synthesize a satisfying dump from the
// translated spec, verify it cleanly, then perturb exactly one delay in
// the dump and assert exactly that constraint is reported violated with
// the shifted counterexample timestamp. The streamed verdicts must be
// byte-identical to whole-trace monitor.Check over the same dump.
func TestVerifyGoldenEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	defer ts.Close()
	png, p, hash := goldenSample(t, ts.URL)

	c0 := p.Constraints[0]
	label := c0.Delay
	delays, _ := json.Marshal(monitor.Spec{
		Delays: map[string]monitor.Bounds{label: {Min: 0.5, Max: 1.5}},
	})
	clean := synthVCD(t, p, "", 0)

	// Clean dump: every constraint passes.
	st := readVerifyStream(t, postVerify(t, ts.URL, []vpart{
		{"image", png}, {"delays", delays}, {"vcd", clean},
	}))
	if len(st.Errors) > 0 {
		t.Fatalf("stream error: %v", st.Errors)
	}
	if !st.Summary.OK || st.Summary.Violations != 0 {
		t.Fatalf("clean dump not OK: %+v verdicts %+v", st.Summary, st.Verdicts)
	}
	if len(st.Verdicts) != len(p.Constraints) {
		t.Fatalf("got %d verdicts, want %d", len(st.Verdicts), len(p.Constraints))
	}
	if st.Spec.LTL == "" || st.Spec.SVA == "" {
		t.Fatalf("spec line missing property texts: %+v", st.Spec)
	}
	if st.Spec.InputHash != hash {
		t.Fatalf("spec line hash %q, want %q", st.Spec.InputHash, hash)
	}

	// Streaming invariance: the streamed verdicts must match whole-trace
	// monitor.Check over the same dump, byte for byte.
	mspec := &monitor.Spec{SPO: p, Delays: map[string]monitor.Bounds{label: {Min: 0.5, Max: 1.5}}}
	wholeTr, err := vcd.Parse(bytes.NewReader(clean))
	if err != nil {
		t.Fatal(err)
	}
	res, err := monitor.Check(mspec, wholeTr)
	if err != nil {
		t.Fatal(err)
	}
	want := monitor.ResultVerdicts(mspec, res)
	got := append([]monitor.Verdict(nil), st.Verdicts...)
	sort.Slice(got, func(i, j int) bool { return got[i].Index < got[j].Index })
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if !bytes.Equal(wb, gb) {
		t.Fatalf("streamed verdicts diverge from monitor.Check:\n  stream: %s\n  check:  %s", gb, wb)
	}

	// Find the clean verdict for constraint 0 so the perturbed run's
	// counterexample timestamps can be predicted exactly.
	var cleanV monitor.Verdict
	for _, v := range st.Verdicts {
		if v.Index == 0 {
			cleanV = v
		}
	}

	// Perturb exactly one delay: shift the constraint's destination signal
	// late enough to leave [0.5, 1.5].
	perturbed := synthVCD(t, p, p.Nodes[c0.Dst].Signal, 2)
	st2 := readVerifyStream(t, postVerify(t, ts.URL, []vpart{
		{"ref", []byte(hash)}, {"delays", delays}, {"vcd", perturbed},
	}))
	if len(st2.Errors) > 0 {
		t.Fatalf("stream error: %v", st2.Errors)
	}
	if st2.Summary.OK {
		t.Fatalf("perturbed dump passed: %+v", st2.Summary)
	}
	var bad []monitor.Verdict
	for _, v := range st2.Verdicts {
		if !v.Pass {
			bad = append(bad, v)
		}
	}
	if len(bad) != 1 || bad[0].Index != 0 {
		t.Fatalf("want exactly constraint 0 violated, got %+v", bad)
	}
	wantMeasured := cleanV.Measured + 2
	if diff := bad[0].Measured - wantMeasured; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("violation measured %g, want %g", bad[0].Measured, wantMeasured)
	}
	wantDst := cleanV.DstTime + 2
	if diff := bad[0].DstTime - wantDst; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("counterexample dst time %g, want %g", bad[0].DstTime, wantDst)
	}
	wantReason := fmt.Sprintf("delay %.4g outside [%.4g, %.4g]", bad[0].Measured, 0.5, 1.5)
	if bad[0].Reason != wantReason {
		t.Fatalf("violation reason %q, want %q", bad[0].Reason, wantReason)
	}
}

// TestVerifyRefSkipsTranslation pins the store-backed reuse: after one
// translation, verifying by ref answers from the artifact cache without
// admitting another translation.
func TestVerifyRefSkipsTranslation(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 2, Store: st})
	defer ts.Close()
	_, p, hash := goldenSample(t, ts.URL)
	clean := synthVCD(t, p, "", 0)

	translations := s.requests.Value()
	stream := readVerifyStream(t, postVerify(t, ts.URL, []vpart{
		{"ref", []byte(hash)}, {"vcd", clean},
	}))
	if got := s.requests.Value(); got != translations {
		t.Fatalf("ref verify ran %d translations, want 0", got-translations)
	}
	if !stream.Summary.OK {
		t.Fatalf("ref verify failed: %+v", stream.Summary)
	}
	if !stream.Spec.Cached {
		t.Fatal("ref verify not marked cached")
	}

	// The ref survives a cold restart through the persistent store.
	s2, ts2 := newTestServer(t, Config{Workers: 2, Store: st})
	defer ts2.Close()
	before := s2.requests.Value()
	stream2 := readVerifyStream(t, postVerify(t, ts2.URL, []vpart{
		{"ref", []byte(hash)}, {"vcd", clean},
	}))
	if got := s2.requests.Value(); got != before {
		t.Fatalf("restarted ref verify ran %d translations, want 0", got-before)
	}
	if !stream2.Summary.OK {
		t.Fatalf("restarted ref verify failed: %+v", stream2.Summary)
	}
}

// TestVerifyConcurrentSharedPipeline hammers /v1/verify from many
// goroutines sharing one Pipeline and one store — the -race seatbelt for
// the whole verification slice.
func TestVerifyConcurrentSharedPipeline(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Workers: 4, Store: st})
	defer ts.Close()
	png, p, hash := goldenSample(t, ts.URL)
	clean := synthVCD(t, p, "", 0)

	const n = 12
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			parts := []vpart{{"image", png}, {"vcd", clean}}
			if i%2 == 1 {
				parts[0] = vpart{"ref", []byte(hash)}
			}
			body, ctype := verifyBody(t, parts)
			resp, err := http.Post(ts.URL+"/v1/verify", ctype, body)
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			raw, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, raw)
				return
			}
			if !bytes.Contains(raw, []byte(`"type":"summary"`)) || !bytes.Contains(raw, []byte(`"ok":true`)) {
				errs <- fmt.Errorf("no passing summary in %s", raw)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVerifyRequestValidation pins the 4xx surface of the endpoint.
func TestVerifyRequestValidation(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	defer ts.Close()
	png, p, _ := goldenSample(t, ts.URL)
	clean := synthVCD(t, p, "", 0)

	cases := []struct {
		name   string
		parts  []vpart
		status int
	}{
		{"missing vcd", []vpart{{"image", png}}, http.StatusBadRequest},
		{"vcd before spec", []vpart{{"vcd", clean}, {"image", png}}, http.StatusBadRequest},
		{"unknown part", []vpart{{"image", png}, {"bogus", []byte("x")}, {"vcd", clean}}, http.StatusBadRequest},
		{"bad ref", []vpart{{"ref", []byte("not-hex")}, {"vcd", clean}}, http.StatusBadRequest},
		{"unknown ref", []vpart{{"ref", []byte("00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff")}, {"vcd", clean}}, http.StatusNotFound},
		{"bad delays", []vpart{{"image", png}, {"delays", []byte("{")}, {"vcd", clean}}, http.StatusBadRequest},
		{"two sources", []vpart{{"image", png}, {"image", png}, {"vcd", clean}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postVerify(t, ts.URL, tc.parts)
			body := readBody(t, resp)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
		})
	}

	t.Run("cut ref", func(t *testing.T) {
		// The body ends inside the ref part, before its closing boundary.
		ref := []byte("00112233445566778899aabbccddeeff")
		body, ctype := verifyBody(t, []vpart{{"ref", ref}})
		cut := body.Bytes()[:bytes.Index(body.Bytes(), ref)+len(ref)/2]
		bad := s.badRequests.Value()
		resp, err := http.Post(ts.URL+"/v1/verify", ctype, bytes.NewReader(cut))
		if err != nil {
			t.Fatal(err)
		}
		got := readBody(t, resp)
		if want := `{"error":"read ref part: unexpected EOF"}` + "\n"; resp.StatusCode != http.StatusBadRequest || string(got) != want {
			t.Fatalf("status %d body %q, want 400 %q", resp.StatusCode, got, want)
		}
		if d := s.badRequests.Value() - bad; d != 1 {
			t.Errorf("tdserve_bad_requests_total rose by %d, want 1", d)
		}
	})

	t.Run("not multipart", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/v1/verify", "application/json", bytes.NewReader([]byte("{}")))
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
		}
	})
}

// TestVerifyVCDLimitInBand streams a dump past MaxVCDBytes and expects
// the in-band error line (the 200 status is already committed when the
// limit trips).
func TestVerifyVCDLimitInBand(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxVCDBytes: 64})
	defer ts.Close()
	png, p, _ := goldenSample(t, ts.URL)
	clean := synthVCD(t, p, "", 0)
	if len(clean) <= 64 {
		t.Fatalf("dump unexpectedly small: %d bytes", len(clean))
	}

	st := readVerifyStream(t, postVerify(t, ts.URL, []vpart{
		{"image", png}, {"vcd", clean},
	}))
	if len(st.Errors) == 0 {
		t.Fatalf("no in-band error for over-limit dump: %+v", st.Summary)
	}
}

// TestVerifyVCDLimitExact sweeps MaxVCDBytes over every cut of the golden
// dump: wherever the limit falls, inside a line or at its end, the error
// line names the limit and nothing else. A line the limit cuts is never
// decoded, so it can never read as a bad or out-of-order timestamp.
func TestVerifyVCDLimitExact(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	defer ts.Close()
	_, p, hash := goldenSample(t, ts.URL)
	clean := synthVCD(t, p, "", 0)
	body, ctype := verifyBody(t, []vpart{{"ref", []byte(hash)}, {"vcd", clean}})
	for limit := int64(1); limit < int64(len(clean)); limit++ {
		s.cfg.MaxVCDBytes = limit
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/verify", bytes.NewReader(body.Bytes()))
		req.Header.Set("Content-Type", ctype)
		s.Handler().ServeHTTP(rec, req)
		st := readVerifyStream(t, rec.Result())
		want := fmt.Sprintf("vcd exceeds the %d-byte limit", limit)
		if len(st.Errors) != 1 || st.Errors[0].Error != want {
			t.Fatalf("limit %d of a %d-byte dump: error lines %+v, want exactly %q", limit, len(clean), st.Errors, want)
		}
	}
}

// verifyHeader is the header of an HTTP/1.1 POST to /v1/verify with a
// body of n bytes.
func verifyHeader(host, ctype string, n int) []byte {
	return []byte(fmt.Sprintf("POST /v1/verify HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n", host, ctype, n))
}

// streamLines reads one NDJSON response off br in the background and
// sends its lines; the channel closes at the end of the response, and
// errc then holds the status or read error, or nil.
func streamLines(br *bufio.Reader) (<-chan string, <-chan error) {
	// A verify response's lines fit the buffer, so the reader finishes
	// even when a failing test stops receiving.
	lines, errc := make(chan string, 64), make(chan error, 1)
	go func() {
		defer close(lines)
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("status %d", resp.StatusCode)
			return
		}
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			lines <- sc.Text()
		}
		errc <- sc.Err()
	}()
	return lines, errc
}

// TestVerifyKeepAliveAfterStreaming runs two verifications over one kept-
// alive connection. The first holds back the last two bytes of its body,
// the CRLF after the closing boundary, until its summary line has arrived
// or a second has passed: a handler that streams while the body uploads
// has answered in full by then, with the body not yet at its end. The
// second request on the same connection must still be answered in full.
func TestVerifyKeepAliveAfterStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	defer ts.Close()
	_, p, hash := goldenSample(t, ts.URL)
	body, ctype := verifyBody(t, []vpart{{"ref", []byte(hash)}, {"vcd", synthVCD(t, p, "", 0)}})
	raw := body.Bytes()
	host := ts.Listener.Addr().String()
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(b []byte) {
		t.Helper()
		if _, err := conn.Write(b); err != nil {
			t.Fatal(err)
		}
	}

	send(append(verifyHeader(host, ctype, len(raw)), raw[:len(raw)-2]...))
	lines, errc := streamLines(br)
	var first []string
	timer := time.NewTimer(time.Second)
	defer timer.Stop()
wait:
	for !slices.ContainsFunc(first, isSummary) {
		select {
		case l, ok := <-lines:
			if !ok {
				break wait
			}
			first = append(first, l)
		case <-timer.C:
			break wait
		}
	}
	send(raw[len(raw)-2:])
	for l := range lines {
		first = append(first, l)
	}
	if err := <-errc; err != nil || !slices.ContainsFunc(first, isSummary) {
		t.Fatalf("request 1: %v, lines %q; want a summary line", err, first)
	}

	send(append(verifyHeader(host, ctype, len(raw)), raw...))
	lines, errc = streamLines(br)
	var second []string
	for l := range lines {
		second = append(second, l)
	}
	if err := <-errc; err != nil || !slices.ContainsFunc(second, isSummary) {
		t.Fatalf("request 2 on the kept-alive connection: %v, lines %q; want a summary line", err, second)
	}
}

func isSummary(line string) bool { return strings.Contains(line, `"type":"summary"`) }

// slowSummary holds a verify response's summary line back for d.
type slowSummary struct {
	http.ResponseWriter
	d time.Duration
}

func (w slowSummary) Write(b []byte) (int, error) {
	if isSummary(string(b)) {
		time.Sleep(w.d)
	}
	return w.ResponseWriter.Write(b)
}

func (w slowSummary) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// TestVerifyDeadlineAfterBodyEnds lets the request's deadline pass after
// the body has ended and the dump has decoded, while the summary line is
// written. Nothing of the body is left to read, so the response must end
// in full, and the kept-alive connection must carry a second request
// with its context live: a read deadline that lands on net/http's
// background read after the body would cancel the connection's context.
func TestVerifyDeadlineAfterBodyEnds(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, VerifyTimeout: 200 * time.Millisecond})
	defer ts.Close()
	_, p, hash := goldenSample(t, ts.URL)
	h := s.Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if err := r.Context().Err(); err != nil {
			t.Errorf("request arrived with its context done: %v", err)
		}
		h.ServeHTTP(slowSummary{w, 400 * time.Millisecond}, r)
	}))
	defer slow.Close()
	body, ctype := verifyBody(t, []vpart{{"ref", []byte(hash)}, {"vcd", synthVCD(t, p, "", 0)}})
	raw := body.Bytes()
	host := slow.Listener.Addr().String()
	conn, err := net.Dial("tcp", host)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	for i := 1; i <= 2; i++ {
		if _, err := conn.Write(append(verifyHeader(host, ctype, len(raw)), raw...)); err != nil {
			t.Fatal(err)
		}
		lines, errc := streamLines(br)
		var got []string
		for l := range lines {
			got = append(got, l)
		}
		if err := <-errc; err != nil || !slices.ContainsFunc(got, isSummary) {
			t.Fatalf("request %d: %v, lines %q; want a summary line and a clean end", i, err, got)
		}
	}
}

// TestVerifyGivesUpConnection covers the two ways a verification gives
// its connection up instead of reading its body to the end. A dump that
// fails on its first change line and then runs on for 2 MiB leaves more
// than the handler reads after its error line: the response ends as
// usual, then the connection. A dump still uploading when the request's
// deadline passes, slowly or not at all, has its connection closed under
// the response; a stalled upload is cut at the deadline, not when it
// resumes. Each time the client gets the error line, the connection is
// never reused, and the request leaves its flight entry and its
// tdverify_* bytes.
func TestVerifyGivesUpConnection(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{})
	s, ts := newTestServer(t, Config{Workers: 2, Flight: rec, VerifyTimeout: 300 * time.Millisecond})
	defer ts.Close()
	_, _, hash := goldenSample(t, ts.URL)
	head := "$var wire 1 ! w $end\n$enddefinitions $end\n#0\n"
	changes := strings.Repeat("1!\n0!\n", 2048)

	cases := []struct {
		name, wantErr string
		clean         bool // the response ends in full before the close
		// upload writes the vcd part's bytes after head, then rest, the
		// body's end; responded closes once the response has been read.
		upload func(w io.Writer, rest []byte, responded <-chan struct{})
	}{
		{"long tail", "line 4: unrecognised value change", true, func(w io.Writer, rest []byte, _ <-chan struct{}) {
			_, _ = w.Write(append([]byte("qqq\n"+strings.Repeat("#1\n", 700<<10)), rest...))
		}},
		{"deadline", "context deadline exceeded", false, func(w io.Writer, rest []byte, _ <-chan struct{}) {
			for i := 0; i < 30; i++ {
				if _, err := w.Write([]byte(changes)); err != nil {
					return
				}
				time.Sleep(50 * time.Millisecond)
			}
			_, _ = w.Write(rest)
		}},
		{"stall", "context deadline exceeded", false, func(w io.Writer, rest []byte, responded <-chan struct{}) {
			if _, err := w.Write([]byte(changes)); err != nil {
				return
			}
			select {
			case <-responded:
			case <-time.After(10 * time.Second):
			}
			_, _ = w.Write(rest)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Chunked, so the body can be written as it goes.
			body, ctype := verifyBody(t, []vpart{{"ref", []byte(hash)}, {"vcd", []byte(head)}})
			raw := body.Bytes()
			cut := bytes.Index(raw, []byte(head)) + len(head)
			host := ts.Listener.Addr().String()
			conn, err := net.Dial("tcp", host)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			bytesBefore := s.verifyMetrics.TraceBytes.Value()
			rid := "give-up-" + strings.ReplaceAll(tc.name, " ", "-")

			// The server stops reading partway, so the upload may end in
			// a write error; it runs beside the response.
			wrote, responded := make(chan struct{}), make(chan struct{})
			start := time.Now()
			go func() {
				defer close(wrote)
				cw := httputil.NewChunkedWriter(conn)
				header := fmt.Sprintf("POST /v1/verify HTTP/1.1\r\nHost: %s\r\nContent-Type: %s\r\nTransfer-Encoding: chunked\r\nX-Request-ID: %s\r\n\r\n", host, ctype, rid)
				if _, err := io.WriteString(conn, header); err != nil {
					return
				}
				if _, err := cw.Write(raw[:cut]); err != nil {
					return
				}
				tc.upload(cw, raw[cut:], responded)
				if cw.Close() == nil {
					_, _ = io.WriteString(conn, "\r\n")
				}
			}()
			lines, errc := streamLines(bufio.NewReader(conn))
			var got []string
			for l := range lines {
				got = append(got, l)
			}
			err = <-errc
			close(responded)
			if took := time.Since(start); took > 5*time.Second {
				t.Fatalf("the response took %v, waiting on the upload past its deadline", took)
			}
			if len(got) != 2 || !strings.Contains(got[1], `"type":"error"`) || !strings.Contains(got[1], tc.wantErr) {
				t.Fatalf("lines %q, want the spec line and an error line with %q", got, tc.wantErr)
			}
			if clean := err == nil; clean != tc.clean {
				t.Fatalf("response ended with %v; want a clean end %v", err, tc.clean)
			}
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			if n, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after the response (read %d bytes, %v)", n, err)
			}
			<-wrote
			if d := s.verifyMetrics.TraceBytes.Value() - bytesBefore; d <= 0 {
				t.Errorf("tdverify_trace_bytes_total rose by %d, want the bytes decoded", d)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				dump := rec.Snapshot(obs.FlightFilter{RequestID: rid})
				if all := append(dump.Entries, dump.Pinned...); len(all) == 1 && all[0].Name == "verify" {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("no verify flight entry for the request: %+v", dump)
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
