package jobs

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/metrics"
	"tdmagic/internal/obs"
	"tdmagic/internal/store"
)

// sinks is what one lifecycle transition writes besides its stream
// event: a flight-recorder event, events on the job's root span, a log
// message and tdjobs_ counter increments.
type sinks struct {
	flight   string
	spans    []string
	log      string
	counters map[string]int64
}

// transitionSinks pins the sinks of every transition, keyed by the
// event type plus the store outcome of item_done and the state of a
// terminal event (the first field of eventKey).
var transitionSinks = map[string]sinks{
	"submitted":    {flight: "job_submitted", log: "job submitted", counters: map[string]int64{"tdjobs_jobs_total": 1}},
	"resumed":      {flight: "job_resumed", log: "job resumed", counters: map[string]int64{"tdjobs_jobs_total": 1}},
	"item_claimed": {},
	"item_retried": {spans: []string{"retry", "backoff"}, counters: map[string]int64{"tdjobs_retries_total": 1}},
	"item_quarantined": {flight: "item_quarantined", spans: []string{"quarantine"}, log: "item quarantined",
		counters: map[string]int64{"tdjobs_items_quarantined_total": 1}},
	"item_done/miss":  {counters: map[string]int64{"tdjobs_items_done_total": 1, "tdjobs_store_misses_total": 1}},
	"item_done/hit":   {counters: map[string]int64{"tdjobs_items_done_total": 1, "tdjobs_store_hits_total": 1}},
	"checkpoint":      {},
	"state/done":      {flight: "job_done", log: "job finished"},
	"state/failed":    {flight: "job_failed", log: "job finished"},
	"state/cancelled": {flight: "job_cancelled", log: "job cancelled"},
}

// eventKey renders a stream event as "type[/outcome] [item] [resumed]".
func eventKey(ev Event) string {
	k := string(ev.Type)
	switch {
	case ev.Type == EventDone && ev.Cached != nil && *ev.Cached:
		k += "/hit"
	case ev.Type == EventDone:
		k += "/miss"
	case ev.Type == EventTerminal:
		k += "/" + string(ev.State)
	}
	if ev.Item != "" {
		k += " " + ev.Item
	}
	if ev.Resumed {
		k += " resumed"
	}
	return k
}

// logCapture is a slog handler that records each message under the
// record's "job" attribute.
type logCapture struct {
	mu   sync.Mutex
	msgs map[string][]string
}

func (c *logCapture) Enabled(context.Context, slog.Level) bool { return true }
func (c *logCapture) WithAttrs([]slog.Attr) slog.Handler       { return c }
func (c *logCapture) WithGroup(string) slog.Handler            { return c }

func (c *logCapture) Handle(_ context.Context, r slog.Record) error {
	job := ""
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "job" {
			job = a.Value.String()
		}
		return true
	})
	c.mu.Lock()
	c.msgs[job] = append(c.msgs[job], r.Message)
	c.mu.Unlock()
	return nil
}

// sinkHarness opens service generations over one case's journal root
// and the shared store, wired to a fresh flight recorder, log capture
// and registry, so every sink reading belongs to that case alone.
type sinkHarness struct {
	pipe              *core.Pipeline
	storeDir, jobsDir string
	cfg               Config
	logs              *logCapture
}

func (h *sinkHarness) open(t *testing.T) *Service {
	return reopen(t, h.pipe, h.storeDir, h.jobsDir, h.cfg)
}

// counters reads every tdjobs_ counter from the registry's exposition.
func (h *sinkHarness) counters(t *testing.T) map[string]int64 {
	t.Helper()
	var buf bytes.Buffer
	if err := h.cfg.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	kind := map[string]string{}
	for _, line := range strings.Split(buf.String(), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 4 && f[0] == "#" && f[1] == "TYPE":
			kind[f[2]] = f[3]
		case len(f) == 2 && strings.HasPrefix(f[0], "tdjobs_") && kind[f[0]] == "counter":
			n, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("counter line %q: %v", line, err)
			}
			out[f[0]] = n
		}
	}
	return out
}

// flight returns the job's flight event names and the events of its
// root "job" spans, both in capture order.
func (h *sinkHarness) flight(id string) (events, spans []string) {
	dump := h.cfg.Flight.Snapshot(obs.FlightFilter{RequestID: id})
	entries := append(dump.Entries, dump.Pinned...)
	sort.Slice(entries, func(a, b int) bool { return entries[a].Seq < entries[b].Seq })
	for _, e := range entries {
		if e.Kind == "event" {
			events = append(events, e.Name)
			continue
		}
		for _, s := range e.Spans {
			if s.Parent == 0 && s.Name == "job" {
				for _, ev := range s.Events {
					spans = append(spans, ev.Name)
				}
			}
		}
	}
	return events, spans
}

// follow subscribes to a job's stream and reads it to EOF.
func follow(t *testing.T, sub *Subscription, err error) []Event {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	return collectEvents(t, sub)
}

func mustSubmit(t *testing.T, svc *Service, specs ...ItemSpec) string {
	t.Helper()
	sn, err := svc.Submit(specs)
	if err != nil {
		t.Fatal(err)
	}
	return sn.ID
}

// TestLifecycleSinks pins which sinks each job lifecycle transition
// writes. Every case lists, per service generation, the full stream the
// job published; the subscriber's snapshot covers the events before it
// attached (its Seq counts them) and the tail must match the rest. The
// flight events, root-span events, log messages and tdjobs_ counters
// must then be exactly what transitionSinks derives from that stream.
func TestLifecycleSinks(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 6)
	storeDir := t.TempDir()

	// paths[0] is stored up front, so the hit case finds it however the
	// cases are selected; every other case translates its own picture.
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	seed := batch.Process(context.Background(), pipe, batch.Item{
		Name: "seed",
		Open: func() (io.ReadCloser, error) { return os.Open(paths[0]) },
	}, batch.Options{Store: st, Config: pipe.ConfigHash()})
	if seed.Err != nil || !seed.Stored {
		t.Fatalf("seeding the store: %v (stored %v)", seed.Err, seed.Stored)
	}

	var (
		drainSvc   atomic.Pointer[Service] // drained by drain-a's attempt
		drained    = make(chan error, 1)
		resumeGate = make(chan struct{}) // holds drain-b until the resumed stream attaches
	)
	wait := func(ch <-chan struct{}) error {
		select {
		case <-ch:
			return nil
		case <-time.After(time.Minute):
			return errors.New("test gate timed out")
		}
	}
	setFaultHook(t, func(f Fault) error {
		switch {
		case f.Point != FaultItemStart:
			return nil
		case f.Item == "retry" && f.Attempt == 1, f.Item == "poison":
			return errors.New("injected failure")
		case f.Item == "drain-a":
			svc := drainSvc.Load()
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				drained <- svc.Close(ctx)
			}()
			return wait(svc.drain)
		case f.Item == "drain-b":
			return wait(resumeGate)
		}
		return nil
	})

	// live submits specs with every worker slot held until the stream is
	// attached, then follows it to EOF.
	live := func(t *testing.T, svc *Service, specs ...ItemSpec) (string, []Event) {
		release := holdSlots(svc)
		id := mustSubmit(t, svc, specs...)
		sub, err := svc.Events(id, false)
		release()
		return id, follow(t, sub, err)
	}
	single := func(name string, path string) func(*testing.T, *sinkHarness) (string, [][]Event) {
		return func(t *testing.T, h *sinkHarness) (string, [][]Event) {
			svc := h.open(t)
			defer closeService(t, svc)
			id, evs := live(t, svc, ItemSpec{Name: name, Path: path})
			return id, [][]Event{evs}
		}
	}

	cases := []struct {
		name  string
		drive func(*testing.T, *sinkHarness) (string, [][]Event)
		want  [][]string // per service generation, every event the job published
	}{
		{"store miss", single("miss", paths[1]), [][]string{{
			"submitted", "checkpoint", "item_claimed miss", "checkpoint",
			"item_done/miss miss", "checkpoint", "checkpoint", "state/done",
		}}},
		{"store hit", single("hit", paths[0]), [][]string{{
			"submitted", "checkpoint", "item_claimed hit", "checkpoint",
			"item_done/hit hit", "checkpoint", "checkpoint", "state/done",
		}}},
		{"retry", single("retry", paths[2]), [][]string{{
			"submitted", "checkpoint", "item_claimed retry", "checkpoint",
			"item_retried retry", "checkpoint", "item_claimed retry", "checkpoint",
			"item_done/miss retry", "checkpoint", "checkpoint", "state/done",
		}}},
		{"quarantine", single("poison", paths[3]), [][]string{{
			"submitted", "checkpoint", "item_claimed poison", "checkpoint",
			"item_retried poison", "checkpoint", "item_claimed poison", "checkpoint",
			"item_quarantined poison", "checkpoint", "checkpoint", "state/failed",
		}}},
		{"cancel", func(t *testing.T, h *sinkHarness) (string, [][]Event) {
			svc := h.open(t)
			defer closeService(t, svc)
			release := holdSlots(svc)
			defer release()
			id := mustSubmit(t, svc, ItemSpec{Name: "cancel", Path: paths[0]})
			// The scheduler marks the job running, then blocks on the held
			// slots; cancel only after that checkpoint.
			for sn, _ := svc.Get(id, false); sn.State != StateRunning; sn, _ = svc.Get(id, false) {
				time.Sleep(time.Millisecond)
			}
			sub, err := svc.Events(id, false)
			if _, cerr := svc.Cancel(id); cerr != nil {
				t.Fatal(cerr)
			}
			return id, [][]Event{follow(t, sub, err)}
		}, [][]string{{"submitted", "checkpoint", "checkpoint", "state/cancelled"}}},
		{"drain then resume", func(t *testing.T, h *sinkHarness) (string, [][]Event) {
			svc := h.open(t)
			drainSvc.Store(svc)
			id, first := live(t, svc, ItemSpec{Name: "drain-a", Path: paths[4]}, ItemSpec{Name: "drain-b", Path: paths[5]})
			if err := <-drained; err != nil {
				t.Fatal(err)
			}
			resumed := h.open(t)
			defer closeService(t, resumed)
			sub, err := resumed.Events(id, false)
			close(resumeGate)
			return id, [][]Event{first, follow(t, sub, err)}
		}, [][]string{{
			"submitted", "checkpoint", "item_claimed drain-a", "checkpoint",
			"item_done/miss drain-a", "checkpoint", "checkpoint",
		}, {
			"checkpoint", "resumed", "item_claimed drain-b resumed", "checkpoint",
			"item_done/miss drain-b resumed", "checkpoint", "checkpoint", "state/done",
		}}},
		{"corrupt journal park", func(t *testing.T, h *sinkHarness) (string, [][]Event) {
			const id = "corrupt-job"
			dir := filepath.Join(h.jobsDir, id)
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{journalFile, journalPrev} {
				if err := os.WriteFile(filepath.Join(dir, name), []byte(`{"torn`), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			svc := h.open(t)
			defer closeService(t, svc)
			sub, err := svc.Events(id, false)
			return id, [][]Event{follow(t, sub, err)}
		}, [][]string{{"checkpoint", "state/failed"}}},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastCfg()
			cfg.Workers = 1
			cfg.MaxAttempts = 2
			cfg.Flight = obs.NewRecorder(obs.RecorderConfig{})
			cfg.Registry = metrics.NewRegistry()
			logs := &logCapture{msgs: map[string][]string{}}
			cfg.Logger = slog.New(logs)
			h := &sinkHarness{pipe: pipe, storeDir: storeDir, jobsDir: t.TempDir(), cfg: cfg, logs: logs}

			id, streams := tc.drive(t, h)

			var wantFlight, wantSpans, wantLogs []string
			wantCounters := map[string]int64{}
			for g, keys := range tc.want {
				if g >= len(streams) {
					t.Fatalf("generation %d: no stream", g)
				}
				checkStream(t, g, streams[g], keys)
				for _, k := range keys {
					s, ok := transitionSinks[strings.Fields(k)[0]]
					if !ok {
						t.Fatalf("no sinks row for %q", k)
					}
					if s.flight != "" {
						wantFlight = append(wantFlight, s.flight)
					}
					wantSpans = append(wantSpans, s.spans...)
					if s.log != "" {
						wantLogs = append(wantLogs, s.log)
					}
					for name, n := range s.counters {
						wantCounters[name] += n
					}
				}
			}

			flight, spans := h.flight(id)
			if !reflect.DeepEqual(flight, wantFlight) {
				t.Errorf("flight events = %q, want %q", flight, wantFlight)
			}
			if !reflect.DeepEqual(spans, wantSpans) {
				t.Errorf("job span events = %q, want %q", spans, wantSpans)
			}
			h.logs.mu.Lock()
			gotLogs := h.logs.msgs[id]
			h.logs.mu.Unlock()
			if !reflect.DeepEqual(gotLogs, wantLogs) {
				t.Errorf("log messages = %q, want %q", gotLogs, wantLogs)
			}
			got := h.counters(t)
			for name := range wantCounters {
				if _, ok := got[name]; !ok {
					t.Errorf("counter %s not registered", name)
				}
			}
			for name, n := range got {
				if n != wantCounters[name] {
					t.Errorf("%s = %d, want %d", name, n, wantCounters[name])
				}
			}
		})
	}
}

// checkStream matches one generation's stream against the full list of
// events the job published in it: the snapshot's Seq counts the events
// before the subscriber attached, and the tail must carry the rest in
// order with consecutive sequence numbers.
func checkStream(t *testing.T, gen int, evs []Event, want []string) {
	t.Helper()
	if len(evs) == 0 || evs[0].Type != EventSnapshot {
		t.Fatalf("generation %d: stream %+v, want a snapshot first", gen, evs)
	}
	seq, tail := evs[0].Seq, evs[1:]
	if int(seq)+len(tail) != len(want) {
		var got []string
		for _, ev := range tail {
			got = append(got, eventKey(ev))
		}
		t.Errorf("generation %d: snapshot seq %d + tail %q, want %d events %q", gen, seq, got, len(want), want)
		return
	}
	for i, ev := range tail {
		if ev.Seq != seq+uint64(i)+1 || eventKey(ev) != want[int(seq)+i] {
			t.Errorf("generation %d: event seq %d = %q, want seq %d = %q",
				gen, ev.Seq, eventKey(ev), seq+uint64(i)+1, want[int(seq)+i])
		}
	}
}
