package serve

import (
	"bufio"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"tdmagic/internal/jobs"
	"tdmagic/internal/obs"
)

// cacheSpan returns the attributes of the one span a cache hit's trace
// holds, failing when it holds anything else (a stage span would mean the
// request was translated).
func cacheSpan(t *testing.T, rec *obs.Recorder, rid string) map[string]int64 {
	t.Helper()
	dump := rec.Snapshot(obs.FlightFilter{RequestID: rid})
	all := append(dump.Entries, dump.Pinned...)
	if len(all) != 1 || len(all[0].Spans) != 1 || all[0].Spans[0].Name != "cache" {
		t.Fatalf("trace of %s: %+v, want a single cache span", rid, all)
	}
	attrs := map[string]int64{}
	for _, a := range all[0].Spans[0].Attrs {
		attrs[a.Key] = a.Val
	}
	return attrs
}

// TestFlightEndpoint pins the happy path of GET /debug/flight: with a
// recorder configured, an ordinary (non-debug) translate request leaves
// a trace in the ring, retrievable and filterable by its request ID. A
// repeat's trace is one cache span, which says whether the raw tier
// answered it.
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
		if s.Name == "lad" {
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
