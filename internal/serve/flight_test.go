package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"tdmagic/internal/jobs"
	"tdmagic/internal/obs"
)

// cacheSpan returns the attributes of the store.get layer that answered
// a cache hit, failing unless the request left one translate trace that
// holds such a layer and no core.translate layer (that would mean the
// request was translated).
func cacheSpan(t *testing.T, rec *obs.Recorder, rid string) map[string]int64 {
	t.Helper()
	dump := rec.Snapshot(obs.FlightFilter{RequestID: rid})
	all := append(dump.Entries, dump.Pinned...)
	if len(all) != 1 || all[0].Name != "translate" {
		t.Fatalf("trace of %s: %+v, want one translate entry", rid, all)
	}
	var hit map[string]int64
	for _, s := range all[0].Spans {
		if s.Name == "core.translate" {
			t.Fatalf("trace of %s: %+v, want a cache hit, not a translation", rid, all)
		}
		attrs := map[string]int64{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Val
		}
		if s.Name == "store.get" && attrs["hit"] == 1 {
			hit = attrs
		}
	}
	if hit == nil {
		t.Fatalf("trace of %s: %+v, want a store.get layer that hit", rid, all)
	}
	return hit
}

// TestFlightEndpoint pins the happy path of GET /debug/flight: with a
// recorder configured, an ordinary (non-debug) translate request leaves
// a trace in the ring, retrievable and filterable by its request ID. A
// repeat's trace holds the store.get layer that answered it, which says
// whether the raw tier did.
func TestFlightEndpoint(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{})
	_, ts := newTestServer(t, Config{Workers: 1, Flight: rec})
	_, val := fixture(t)
	png := pngBytes(t, val[0])

	resp := postPNG(t, ts.URL, png)
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("translate: %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")

	get := func(query string) obs.FlightDump {
		t.Helper()
		r, err := http.Get(ts.URL + "/debug/flight" + query)
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("/debug/flight%s: %d %s", query, r.StatusCode, body)
		}
		var dump obs.FlightDump
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatalf("/debug/flight%s not JSON: %v", query, err)
		}
		return dump
	}

	dump := get("?request_id=" + rid)
	if len(dump.Entries)+len(dump.Pinned) != 1 {
		t.Fatalf("entries for %s = %d ring + %d pinned, want 1 total", rid, len(dump.Entries), len(dump.Pinned))
	}
	all := append(dump.Entries, dump.Pinned...)
	e := all[0]
	if e.Kind != "trace" || e.Name != "translate" || e.RequestID != rid {
		t.Errorf("entry = kind %q name %q rid %q", e.Kind, e.Name, e.RequestID)
	}
	var hasStage bool
	for _, s := range e.Spans {
		if s.Name == "lad.detect" {
			hasStage = true
		}
	}
	if !hasStage {
		t.Errorf("trace entry missing pipeline stage spans: %d spans", len(e.Spans))
	}
	for _, c := range []struct {
		name string
		png  []byte
		raw  int64
	}{{"repeat", png, 1}, {"re-encoded", reencode(t, png), 0}} {
		resp := postPNG(t, ts.URL, c.png)
		readBody(t, resp)
		if span := cacheSpan(t, rec, resp.Header.Get("X-Request-ID")); span["hit"] != 1 || span["raw"] != c.raw {
			t.Errorf("%s: cache span %v, want a hit with raw %d", c.name, span, c.raw)
		}
	}

	if dump := get("?request_id=no-such-request"); len(dump.Entries)+len(dump.Pinned) != 0 {
		t.Errorf("bogus request_id matched %d entries", len(dump.Entries)+len(dump.Pinned))
	}
	if dump := get("?min_dur=1h"); len(dump.Entries)+len(dump.Pinned) != 0 {
		t.Errorf("min_dur=1h matched %d entries", len(dump.Entries)+len(dump.Pinned))
	}

	// Malformed filters are refused, not ignored.
	r, err := http.Get(ts.URL + "/debug/flight?min_dur=soon")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r)
	if r.StatusCode != http.StatusBadRequest {
		t.Errorf("min_dur=soon: %d, want 400", r.StatusCode)
	}
}

// TestFlightQueueWait pins the request root: a translation that waited
// for the one worker slot is recorded as one translate entry that spans
// the whole request, wait included, with the wait as its
// serve.queue_wait layer, and is pinned as slow.
func TestFlightQueueWait(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Slow: 150 * time.Millisecond})
	s, ts := newTestServer(t, Config{Workers: 1, Flight: rec})
	_, val := fixture(t)
	started := make(chan struct{}, 2)
	release := make(chan struct{})
	translateHook = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { translateHook = nil }()

	post := func(png []byte, out chan<- *http.Response) {
		resp, err := http.Post(ts.URL+"/v1/translate", "image/png", bytes.NewReader(png))
		if err != nil {
			t.Error(err)
			resp = &http.Response{Body: http.NoBody}
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		out <- resp
	}
	first, second := make(chan *http.Response, 1), make(chan *http.Response, 1)
	go post(pngBytes(t, val[0]), first)
	<-started // the slot is taken: the next request queues
	go post(pngBytes(t, val[1]), second)
	for deadline := time.Now().Add(5 * time.Second); s.queued.Value() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("second request never queued")
		}
	}
	time.Sleep(300 * time.Millisecond) // hold the slot while it waits
	close(release)
	resp := <-second
	if resp.StatusCode != http.StatusOK || (<-first).StatusCode != http.StatusOK {
		t.Fatalf("queued request: %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")

	dump := rec.Snapshot(obs.FlightFilter{RequestID: rid})
	if len(dump.Entries)+len(dump.Pinned) != 1 || len(dump.Pinned) != 1 {
		t.Fatalf("entries for %s: %d ring, %d pinned; want one, pinned", rid, len(dump.Entries), len(dump.Pinned))
	}
	e := dump.Pinned[0]
	if e.Name != "translate" {
		t.Errorf("entry named %q, want translate", e.Name)
	}
	var root, wait *obs.SpanExport
	for i := range e.Spans {
		switch sp := &e.Spans[i]; sp.Name {
		case "translate":
			root = sp
		case "serve.queue_wait":
			wait = sp
		}
	}
	if root == nil || wait == nil {
		t.Fatalf("spans %+v: want a translate root and a serve.queue_wait layer", e.Spans)
	}
	if wait.Parent != root.ID {
		t.Errorf("serve.queue_wait parent %d, want the root %d", wait.Parent, root.ID)
	}
	if wait.DurNS < (200 * time.Millisecond).Nanoseconds() {
		t.Errorf("serve.queue_wait lasted %v, want >= 200ms", time.Duration(wait.DurNS))
	}
	if e.DurNS != root.DurNS || e.DurNS < wait.DurNS {
		t.Errorf("entry lasted %v (root %v), shorter than its %v wait",
			time.Duration(e.DurNS), time.Duration(root.DurNS), time.Duration(wait.DurNS))
	}
}

// TestFlightBatchOneEntry pins one trace per request for the batch
// route: an upload of two pictures leaves one batch entry holding every
// part's layers under the request's root.
func TestFlightBatchOneEntry(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{})
	_, ts := newTestServer(t, Config{Workers: 2, Flight: rec})
	_, val := fixture(t)
	body, ctype := multipartJob(t, []string{"a.png", "b.png"}, [][]byte{pngBytes(t, val[0]), pngBytes(t, val[1])})
	resp, err := http.Post(ts.URL+"/v1/translate/batch", ctype, body)
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	dump := rec.Snapshot(obs.FlightFilter{RequestID: rid})
	all := append(dump.Entries, dump.Pinned...)
	if len(all) != 1 || all[0].Name != "batch" {
		t.Fatalf("entries for %s: %+v, want one batch entry", rid, all)
	}
	name := map[uint64]string{}
	parent := map[uint64]uint64{}
	count := map[string]int{}
	for _, sp := range all[0].Spans {
		name[sp.ID], parent[sp.ID] = sp.Name, sp.Parent
		count[sp.Name]++
	}
	for layer, want := range map[string]int{"store.get": 4, "imgproc.decode": 2, "store.hash_image": 2,
		"serve.queue_wait": 2, "core.translate": 2, "lad.detect": 2, "store.alias": 2} {
		if count[layer] != want {
			t.Errorf("%d %s layers, want %d for two fresh parts (%v)", count[layer], layer, want, count)
		}
	}
	for _, sp := range all[0].Spans {
		id := sp.ID
		for parent[id] != 0 {
			id = parent[id]
		}
		if name[id] != "batch" {
			t.Errorf("span %s is rooted at %q, want the batch root", sp.Name, name[id])
		}
	}
}

// TestFlightDisabled pins the off state: no recorder, 404 endpoint.
func TestFlightDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/debug/flight")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/flight without recorder: %d, want 404", resp.StatusCode)
	}
}

// TestFlightSlowPinned drives a deadline-exceeding translation and
// expects its trace pinned in the flight recorder. The 1ns deadline is
// already expired when the translation starts, so the request reliably
// 504s regardless of machine speed, and the matching 1ns slow threshold
// classifies its root span as an outlier worth pinning.
func TestFlightSlowPinned(t *testing.T) {
	rec := obs.NewRecorder(obs.RecorderConfig{Slow: time.Nanosecond})
	_, ts := newTestServer(t, Config{
		Workers: 1,
		Timeout: time.Nanosecond,
		Flight:  rec,
	})
	_, val := fixture(t)

	resp := postPNG(t, ts.URL, pngBytes(t, val[0]))
	body := readBody(t, resp)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("translate under 1ns deadline: %d %s, want 504", resp.StatusCode, body)
	}
	rid := resp.Header.Get("X-Request-ID")

	r, err := http.Get(ts.URL + "/debug/flight?request_id=" + rid)
	if err != nil {
		t.Fatal(err)
	}
	var dump obs.FlightDump
	if err := json.Unmarshal(readBody(t, r), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Pinned) != 1 {
		t.Fatalf("pinned entries for %s = %d, want 1 (ring %d)", rid, len(dump.Pinned), len(dump.Entries))
	}
	e := dump.Pinned[0]
	if !e.Pinned || e.RequestID != rid {
		t.Errorf("pinned entry = %+v", e)
	}
}

// TestJobEventsEndpoint subscribes to a job's live stream over HTTP
// right after submission and follows it to the end: snapshot first
// (with per-item detail), claim and done lines for every named item,
// and the terminal state line. The throttle keeps the job alive past
// the subscribe so the tail is genuinely live, not a replay.
func TestJobEventsEndpoint(t *testing.T) {
	_, ts := newJobsServerCfg(t, jobs.Config{Workers: 1, Throttle: 50 * time.Millisecond}, nil)
	_, val := fixture(t)

	names := []string{"ev-a.png", "ev-b.png", "ev-c.png"}
	bodies := [][]byte{pngBytes(t, val[0]), pngBytes(t, val[1]), pngBytes(t, val[2])}
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
	if rid := resp.Header.Get("X-Request-ID"); sn.Submitter != rid {
		t.Errorf("snapshot submitter %q != request ID %q", sn.Submitter, rid)
	}

	resp, err = http.Get(ts.URL + "/v1/jobs/" + sn.ID + "/events?items=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("events content type = %q", ct)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var evs []jobs.Event
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		evs = append(evs, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 || evs[0].Type != jobs.EventSnapshot {
		t.Fatalf("first line = %+v, want snapshot", evs)
	}
	if len(evs[0].Items) != 3 {
		t.Errorf("snapshot items = %d, want 3 (?items=1)", len(evs[0].Items))
	}
	claimed, done := map[string]int{}, map[string]int{}
	var terminal bool
	for _, ev := range evs[1:] {
		switch ev.Type {
		case jobs.EventClaimed:
			claimed[ev.Item]++
		case jobs.EventDone:
			done[ev.Item]++
		case jobs.EventTerminal:
			terminal = true
			if ev.State != jobs.StateDone {
				t.Errorf("terminal state = %s (%s)", ev.State, ev.Error)
			}
		}
	}
	for _, n := range []string{"ev-a", "ev-b", "ev-c"} {
		if done[n] != 1 {
			t.Errorf("item %s: %d done events, want exactly 1", n, done[n])
		}
	}
	// The first claim can precede the subscription (it is then covered by
	// the snapshot); with one worker and a 50ms throttle the later items
	// are claimed live, well after the stream attached.
	if len(claimed) < 2 {
		t.Errorf("live claim events for %d items, want >= 2 (%v)", len(claimed), claimed)
	}
	if !terminal {
		t.Error("stream ended without a terminal state line")
	}

	// Unknown job: a clean 404, not a hung stream.
	r404, err := http.Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	readBody(t, r404)
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("events of unknown job: %d, want 404", r404.StatusCode)
	}
}

// TestJobEventsFlushedLive reads the events stream's snapshot line while
// the job still runs: every line is flushed as it is written, not held
// back until the job ends or a write buffer fills.
func TestJobEventsFlushedLive(t *testing.T) {
	_, ts := newJobsServerCfg(t, jobs.Config{Workers: 1, Throttle: 400 * time.Millisecond}, nil)
	_, val := fixture(t)
	names := []string{"live-a.png", "live-b.png", "live-c.png"}
	bodies := [][]byte{pngBytes(t, val[0]), pngBytes(t, val[1]), pngBytes(t, val[2])}
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

	events, err := http.Get(ts.URL + "/v1/jobs/" + sn.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer events.Body.Close()
	line, err := bufio.NewReader(events.Body).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var first jobs.Event
	if err := json.Unmarshal(line, &first); err != nil || first.Type != jobs.EventSnapshot {
		t.Fatalf("first line %q (%v), want the snapshot", line, err)
	}
	status, err := http.Get(ts.URL + "/v1/jobs/" + sn.ID)
	if err != nil {
		t.Fatal(err)
	}
	var now jobs.Snapshot
	if err := json.NewDecoder(status.Body).Decode(&now); err != nil {
		t.Fatal(err)
	}
	status.Body.Close()
	if now.State != jobs.StateRunning {
		t.Fatalf("job %s by the time the snapshot line arrived, want it still running", now.State)
	}
}
