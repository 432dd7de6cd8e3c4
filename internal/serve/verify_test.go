package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"mime/multipart"
	"net/http"
	"sort"
	"sync"
	"testing"

	"tdmagic/internal/monitor"
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
