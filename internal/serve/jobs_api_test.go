package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"tdmagic/internal/jobs"
	"tdmagic/internal/metrics"
	"tdmagic/internal/store"
)

// newJobsServer builds a server with the durable job API mounted over
// fresh store and journal directories.
func newJobsServer(t *testing.T, jcfg jobs.Config, manifestRoot string) (*Server, *httptest.Server) {
	t.Helper()
	return newJobsServerCfg(t, jcfg, func(c *Config) { c.JobsManifestRoot = manifestRoot })
}

// newJobsServerCfg is newJobsServer with a hook to adjust the serve
// config (upload limits, manifest root) before the server starts.
func newJobsServerCfg(t *testing.T, jcfg jobs.Config, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	return newJobsServerAt(t, t.TempDir(), jcfg, mutate)
}

// newJobsServerAt is newJobsServerCfg with the job journal rooted at
// jobsDir, for tests that inspect what a request left on disk.
func newJobsServerAt(t *testing.T, jobsDir string, jcfg jobs.Config, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	pipe, _ := fixture(t)
	pipe.Metrics = nil
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	jcfg.Registry = reg
	if jcfg.BackoffBase == 0 {
		jcfg.BackoffBase = time.Millisecond
	}
	js, err := jobs.Open(jobsDir, pipe, st, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Workers:  2,
		Store:    st,
		Jobs:     js,
		Registry: reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(pipe, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		_ = js.Close(ctx)
	})
	return s, ts
}

// multipartJob encodes PNG bodies as a multipart job submission.
func multipartJob(t *testing.T, names []string, bodies [][]byte) (*bytes.Buffer, string) {
	t.Helper()
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for i, name := range names {
		part, err := mw.CreateFormFile("file", name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := part.Write(bodies[i]); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	return &buf, mw.FormDataContentType()
}

// pollJob polls a job's status until it is terminal.
func pollJob(t *testing.T, base, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var sn jobs.Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if sn.State.Terminal() {
			return sn
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, sn.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestJobsEndToEnd drives the four job endpoints over HTTP: submit a
// multipart corpus, poll to done, stream ordered NDJSON results, and
// list the collection.
func TestJobsEndToEnd(t *testing.T) {
	_, ts := newJobsServer(t, jobs.Config{Workers: 2}, "")
	_, val := fixture(t)

	names := []string{"pic-a.png", "pic-b.png", "pic-c.png"}
	bodies := [][]byte{pngBytes(t, val[0]), pngBytes(t, val[1]), pngBytes(t, val[2])}
	body, ctype := multipartJob(t, names, bodies)
	resp, err := http.Post(ts.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	if loc := resp.Header.Get("Location"); !strings.HasPrefix(loc, "/v1/jobs/") {
		t.Errorf("Location = %q", loc)
	}
	var sn jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sn.ID == "" || sn.Stats.Total != 3 {
		t.Fatalf("snapshot = %+v", sn)
	}

	final := pollJob(t, ts.URL, sn.ID)
	if final.State != jobs.StateDone || final.Stats.Done != 3 {
		t.Fatalf("final = %+v", final)
	}

	// Ordered NDJSON results, named by upload stem.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sn.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("results status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("results content type = %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	i := 0
	for sc.Scan() {
		var r jobs.ItemResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSuffix(names[i], ".png")
		if r.Index != i || r.Name != want || r.Spec == "" || r.Error != "" {
			t.Errorf("line %d = %+v, want name %s", i, r, want)
		}
		i++
	}
	resp.Body.Close()
	if i != 3 {
		t.Fatalf("streamed %d results, want 3", i)
	}

	// Status with per-item detail, and the collection listing.
	resp, err = http.Get(ts.URL + "/v1/jobs/" + sn.ID + "?items=1")
	if err != nil {
		t.Fatal(err)
	}
	var detailed jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&detailed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(detailed.Items) != 3 || detailed.Items[0].State != jobs.ItemDone {
		t.Fatalf("detailed items = %+v", detailed.Items)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Jobs []jobs.Snapshot `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listing.Jobs) != 1 || listing.Jobs[0].ID != sn.ID {
		t.Fatalf("listing = %+v", listing)
	}
}

// TestJobsSubmissionGuardrails pins the rejection paths: traversal part
// names, non-UTF-8 part names, non-PNG parts, manifest submissions when
// disabled, and manifest paths escaping the root. No refusal leaves
// anything under the jobs root.
func TestJobsSubmissionGuardrails(t *testing.T) {
	jobsDir := t.TempDir()
	_, ts := newJobsServerAt(t, jobsDir, jobs.Config{Workers: 1}, nil)
	_, val := fixture(t)
	png := pngBytes(t, val[0])

	post := func(body *bytes.Buffer, ctype string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// mime/multipart strips directory components from part filenames
	// (RFC 7578), so "../evil.png" cannot arrive whole — but a file
	// literally named "...png" survives that and stems to "..", which the
	// server-side name guard must refuse.
	body, ctype := multipartJob(t, []string{"...png"}, [][]byte{png})
	if got := post(body, ctype); got != http.StatusBadRequest {
		t.Errorf("traversal part name accepted: %d", got)
	}
	// mime/multipart hands a non-UTF-8 file name through unchanged; the
	// JSON journal would rewrite it, and a resumed job could never open
	// the saved picture.
	body, ctype = multipartJob(t, []string{"a\xffb.png"}, [][]byte{png})
	if got := post(body, ctype); got != http.StatusBadRequest {
		t.Errorf("non-UTF-8 part name accepted: %d", got)
	}
	body, ctype = multipartJob(t, []string{"ok.png"}, [][]byte{[]byte("not a png")})
	if got := post(body, ctype); got != http.StatusBadRequest {
		t.Errorf("non-PNG part accepted: %d", got)
	}
	if got := post(bytes.NewBufferString(`{"manifest":["a.png"]}`), "application/json"); got != http.StatusBadRequest {
		t.Errorf("manifest accepted with no manifest root: %d", got)
	}
	if got := post(bytes.NewBufferString(`{"manifest":[]}`), "application/json"); got != http.StatusBadRequest {
		t.Errorf("empty submission accepted: %d", got)
	}
	if entries, err := os.ReadDir(jobsDir); err != nil || len(entries) != 0 {
		t.Errorf("refused submissions left %d entries under the jobs root (%v)", len(entries), err)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/nonexistent")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job status = %d", resp.StatusCode)
	}
}

// TestJobsManifestSubmission exercises the manifest path: files under the
// configured root are accepted, escapes are refused.
func TestJobsManifestSubmission(t *testing.T) {
	root := t.TempDir()
	_, val := fixture(t)
	for i := 0; i < 2; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("d-%d.png", i)), pngBytes(t, val[i]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, ts := newJobsServer(t, jobs.Config{Workers: 2}, root)

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"manifest":["d-0.png","d-1.png"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("manifest submit = %d: %s", resp.StatusCode, readBody(t, resp))
	}
	var sn jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final := pollJob(t, ts.URL, sn.ID); final.State != jobs.StateDone || final.Stats.Done != 2 {
		t.Fatalf("final = %+v", final)
	}

	for _, m := range []string{`{"manifest":["../escape.png"]}`, `{"manifest":["/etc/passwd"]}`} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(m))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("manifest %s accepted: %d", m, resp.StatusCode)
		}
	}
}

// TestJobsCancelAndConflict pins the lifecycle edges over HTTP: results
// of a live job answer 409, DELETE cancels, and a cancelled job's
// results mark unexecuted items.
func TestJobsCancelAndConflict(t *testing.T) {
	_, ts := newJobsServer(t, jobs.Config{Workers: 1, Throttle: 50 * time.Millisecond}, "")
	_, val := fixture(t)
	names := []string{"a.png", "b.png", "c.png", "d.png"}
	bodies := make([][]byte, len(names))
	for i := range names {
		bodies[i] = pngBytes(t, val[i%len(val)])
	}
	body, ctype := multipartJob(t, names, bodies)
	resp, err := http.Post(ts.URL+"/v1/jobs", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	var sn jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&sn); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/v1/jobs/" + sn.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("results of a live job = %d, want 409", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sn.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var cancelled jobs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&cancelled); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cancelled.State != jobs.StateCancelled {
		t.Fatalf("after DELETE: %+v", cancelled)
	}
	if final := pollJob(t, ts.URL, sn.ID); final.State != jobs.StateCancelled {
		t.Fatalf("final = %+v", final)
	}
}

// TestJobsUploadLimits pins the streamed-side guards on job uploads.
// Accepted parts stay in memory until Submit, so both limits must trip
// while the body is being read, not after it is buffered: the part count
// is refused at the job service's item limit, and the whole multipart
// body is bounded by MaxJobBodyBytes with a 413.
func TestJobsUploadLimits(t *testing.T) {
	_, val := fixture(t)
	png := pngBytes(t, val[0])
	names := []string{"a.png", "b.png", "c.png", "d.png"}
	bodies := [][]byte{png, png, png, png}

	post := func(ts *httptest.Server) *http.Response {
		t.Helper()
		body, ctype := multipartJob(t, names, bodies)
		resp, err := http.Post(ts.URL+"/v1/jobs", ctype, body)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	// Four parts against a three-item job service.
	_, ts := newJobsServerCfg(t, jobs.Config{Workers: 1, MaxItems: 3}, nil)
	resp := post(ts)
	msg := string(readBody(t, resp))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg, "3-item limit") {
		t.Errorf("over-count upload: status %d, body %q", resp.StatusCode, msg)
	}

	// A body budget smaller than the four parts: the stream is cut off
	// mid-read with 413 rather than buffered whole.
	_, ts2 := newJobsServerCfg(t, jobs.Config{Workers: 1}, func(c *Config) {
		c.MaxJobBodyBytes = int64(len(png)) + 512
	})
	resp = post(ts2)
	msg = string(readBody(t, resp))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized upload: status %d, body %q, want 413", resp.StatusCode, msg)
	}
}

// TestReadyzLifecycle pins the liveness/readiness split: /readyz answers
// 200 while serving, 503 when the store loses writability, and 503 once
// a drain begins — while /healthz stays 200 throughout.
func TestReadyzLifecycle(t *testing.T) {
	storeDir := t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{Workers: 1, Store: st})

	status := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Fatalf("ready replica /readyz = %d", got)
	}

	// Break the store's staging area: writes can no longer land.
	if err := os.RemoveAll(filepath.Join(storeDir, "tmp")); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("unwritable store /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("unwritable store /healthz = %d, want 200 (liveness is not readiness)", got)
	}
	if err := os.MkdirAll(filepath.Join(storeDir, "tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusOK {
		t.Errorf("healed store /readyz = %d", got)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if got := status("/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz = %d, want 503", got)
	}
	if got := status("/healthz"); got != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200", got)
	}
}

// TestRetryAfterAdaptive pins the 429 hint: with no latency samples it
// falls back to the configured deadline; once the observed mean latency
// is known it scales with the wait-queue depth and stays clamped to
// [1s, Timeout].
func TestRetryAfterAdaptive(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, Timeout: 10 * time.Second})

	if got := s.retryAfterSeconds(); got != "10" {
		t.Errorf("no samples: Retry-After = %s, want the 10s deadline", got)
	}

	// Mean latency 500ms; an empty queue turns over in under a second.
	s.pipe.Metrics.Latency.Observe(0.5)
	s.pipe.Metrics.Latency.Observe(0.5)
	if got := s.retryAfterSeconds(); got != "1" {
		t.Errorf("idle queue: Retry-After = %s, want 1", got)
	}
	// Six waiters across two workers: ceil(7/2) = 4 turns x 500ms = 2s.
	s.queued.Add(6)
	if got := s.retryAfterSeconds(); got != "2" {
		t.Errorf("deep queue: Retry-After = %s, want 2", got)
	}
	// A pathological queue stays clamped at the deadline.
	s.queued.Add(1000 - 6)
	if got := s.retryAfterSeconds(); got != "10" {
		t.Errorf("clamp: Retry-After = %s, want 10", got)
	}
	s.queued.Add(-1000)
}
