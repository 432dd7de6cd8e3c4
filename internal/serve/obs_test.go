package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"tdmagic/internal/jobs"
	"tdmagic/internal/obs"
)

// syncBuffer is a goroutine-safe bytes.Buffer: the access log writes from
// server goroutines while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// TestRequestIDHeader pins the correlation contract: every response
// carries an X-Request-ID, a well-formed client ID is echoed back, and a
// garbage one is replaced rather than reflected.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if id := resp.Header.Get("X-Request-ID"); len(id) != 16 {
		t.Errorf("generated request ID %q, want 16 hex chars", id)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-chosen-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if id := resp.Header.Get("X-Request-ID"); id != "client-chosen-42" {
		t.Errorf("client request ID not echoed: got %q", id)
	}

	req, _ = http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "evil\tid")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if id := resp.Header.Get("X-Request-ID"); strings.Contains(id, "\t") || id == "evil\tid" {
		t.Errorf("unprintable client request ID reflected: %q", id)
	}
}

// TestDebugTrace pins ?debug=1: the response embeds a trace whose request
// ID matches the X-Request-ID header and which contains every pipeline
// stage span — even when the picture is already cached, because debug
// bypasses the cache read.
func TestDebugTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	_, val := fixture(t)
	png := pngBytes(t, val[0])

	// Warm the cache first so the debug request would hit it if it didn't
	// bypass the read.
	readBody(t, postPNG(t, ts.URL, png))

	resp, err := http.Post(ts.URL+"/v1/translate?debug=1", "image/png", bytes.NewReader(png))
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug request: %d %s", resp.StatusCode, body)
	}
	var payload struct {
		TranslateResponse
		Trace *obs.Export `json:"trace"`
	}
	if err := json.Unmarshal(body, &payload); err != nil {
		t.Fatalf("debug response not JSON: %v", err)
	}
	if payload.SPO == nil || payload.Spec == "" {
		t.Errorf("debug response lost the translation payload: %s", body)
	}
	if payload.Trace == nil {
		t.Fatalf("debug response has no trace: %s", body)
	}
	if got, want := payload.Trace.RequestID, resp.Header.Get("X-Request-ID"); got != want {
		t.Errorf("trace request ID %q != response header %q", got, want)
	}
	for _, stage := range []string{"core.translate", "lad.detect", "sed.detect", "ocr.read", "sei.interpret"} {
		if payload.Trace.Span(stage) == nil {
			t.Errorf("debug trace missing %s span", stage)
		}
	}
	// The inline export must round-trip through the parser.
	raw, err := json.Marshal(payload.Trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ParseExport(raw); err != nil {
		t.Errorf("inline trace does not re-parse: %v", err)
	}

	// A plain request must not carry a trace.
	body = readBody(t, postPNG(t, ts.URL, png))
	if bytes.Contains(body, []byte(`"trace"`)) {
		t.Errorf("non-debug response leaked a trace: %s", body)
	}
}

// TestVersionEndpoint checks GET /version returns the build identity.
func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/version: %d %s", resp.StatusCode, body)
	}
	var v struct {
		Version   string `json:"version"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("/version not JSON: %v", err)
	}
	if v.Version == "" || v.GoVersion == "" {
		t.Errorf("/version incomplete: %s", body)
	}
}

// TestPprofEndpoints checks the profiling handlers are mounted.
func TestPprofEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d %s", path, resp.StatusCode, body)
		}
		if len(body) == 0 {
			t.Errorf("%s: empty body", path)
		}
	}
}

// TestMetricsContentTypeAndHitRatio pins the two metrics satellites: the
// full Prometheus text content type and the scrape-time hit-ratio gauge.
func TestMetricsContentTypeAndHitRatio(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	_, val := fixture(t)
	png := pngBytes(t, val[0])
	readBody(t, postPNG(t, ts.URL, png)) // miss
	readBody(t, postPNG(t, ts.URL, png)) // hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := string(readBody(t, resp))
	if got, want := resp.Header.Get("Content-Type"), "text/plain; version=0.0.4; charset=utf-8"; got != want {
		t.Errorf("metrics Content-Type = %q, want %q", got, want)
	}
	if !strings.Contains(body, "tdserve_cache_hit_ratio 0.5\n") {
		t.Errorf("exposition missing hit ratio 0.5:\n%s", body)
	}
	for _, stage := range []string{"lad", "sed", "ocr", "sei"} {
		if !strings.Contains(body, `tdmagic_stage_seconds_count{stage="`+stage+`"} 1`) {
			t.Errorf("exposition missing stage=%s histogram (one uncached translation)", stage)
		}
	}
}

// TestAccessLog checks one structured log line is emitted per request,
// correlated by the response's request ID.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	_, ts := newTestServer(t, Config{Workers: 1, Logger: obs.NewLogger(&buf, nil)})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	line := struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
	}{}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v in %q", err, buf.Bytes())
	}
	if line.Method != "GET" || line.Path != "/healthz" || line.Status != http.StatusOK {
		t.Errorf("access log fields wrong: %+v", line)
	}
	if line.RequestID != resp.Header.Get("X-Request-ID") {
		t.Errorf("access log request ID %q != header %q", line.RequestID, resp.Header.Get("X-Request-ID"))
	}
}

// TestExemplarsNameTheRequest pins the exemplar refs with the flight
// recorder off and on: tdmagic_translate_seconds, tdmagic_stage_seconds
// and tdverify_check_seconds name the request that made the
// observation, tdjobs_item_seconds the job.
func TestExemplarsNameTheRequest(t *testing.T) {
	for _, rec := range []*obs.Recorder{nil, obs.NewRecorder(obs.RecorderConfig{})} {
		t.Run(fmt.Sprintf("recorder=%v", rec != nil), func(t *testing.T) {
			_, ts := newJobsServerCfg(t, jobs.Config{Workers: 1, Flight: rec}, func(c *Config) { c.Flight = rec })
			_, val := fixture(t)
			post := func(path, id, ctype string, body io.Reader) *http.Response {
				t.Helper()
				req, _ := http.NewRequest(http.MethodPost, ts.URL+path, body)
				req.Header.Set("Content-Type", ctype)
				req.Header.Set("X-Request-ID", id)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				readBody(t, resp)
				return resp
			}
			// exemplars fails unless each series has an exemplar naming its
			// ref. A later observation in the same bucket replaces one, so
			// each check runs before the next surface observes.
			exemplars := func(want map[string]string) {
				t.Helper()
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				exposition := string(readBody(t, resp))
				for series, ref := range want {
					found := false
					for _, line := range strings.Split(exposition, "\n") {
						if strings.HasPrefix(line, "# EXEMPLAR "+series) && strings.Contains(line, "} "+ref+" ") {
							found = true
						}
					}
					if !found {
						t.Errorf("no %s exemplar naming %s", series, ref)
					}
				}
			}
			png := pngBytes(t, val[0])
			hash := post("/v1/translate", "ex-translate", "image/png", bytes.NewReader(png)).Header.Get("X-Input-Hash")
			vbody, vtype := verifyBody(t, []vpart{{"ref", []byte(hash)}, {"vcd", []byte("$enddefinitions $end\n#0\n")}})
			post("/v1/verify", "ex-verify", vtype, vbody)
			exemplars(map[string]string{
				"tdmagic_translate_seconds_bucket":         "ex-translate",
				`tdmagic_stage_seconds_bucket{stage="lad"`: "ex-translate",
				"tdverify_check_seconds_bucket":            "ex-verify",
			})

			jbody, jtype := multipartJob(t, []string{"a.png"}, [][]byte{pngBytes(t, val[1])})
			resp, err := http.Post(ts.URL+"/v1/jobs", jtype, jbody)
			if err != nil {
				t.Fatal(err)
			}
			var sn jobs.Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			pollJob(t, ts.URL, sn.ID)
			exemplars(map[string]string{"tdjobs_item_seconds_bucket": sn.ID})
		})
	}
}
