package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func captureNamed(r *Recorder, req, name string, dur time.Duration) {
	tr := NewTrace(req)
	sp := tr.Start(name)
	sp.End()
	sp.Dur = dur // tests steer pinning without sleeping
	// Re-export happens from tr.spans, so patching Dur after End but
	// before Capture is safe single-threaded.
	r.Capture(tr)
}

func TestFlightNilSafety(t *testing.T) {
	var r *Recorder
	r.Capture(NewTrace("x"))
	r.Event("x", "boom")
	if got, pinned := r.Len(); got != 0 || pinned != 0 {
		t.Fatal("nil recorder holds entries")
	}
	d := r.Snapshot(FlightFilter{})
	if d.Entries == nil || d.Pinned == nil || len(d.Entries) != 0 {
		t.Fatalf("nil recorder snapshot: %+v", d)
	}
	// Enabled recorder must tolerate nil/empty traces.
	rec := NewRecorder(RecorderConfig{})
	rec.Capture(nil)
	rec.Capture(NewTrace("empty"))
	if got, _ := rec.Len(); got != 0 {
		t.Fatal("empty trace was recorded")
	}
}

// TestNilRecorderZeroAlloc pins the disabled path: a request running
// with no recorder and no trace must not allocate in any recorder call.
func TestNilRecorderZeroAlloc(t *testing.T) {
	var r *Recorder
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		tr := TraceFrom(ctx) // nil: no trace attached
		r.Capture(tr)
		r.Event("", "done")
	})
	if allocs != 0 {
		t.Errorf("disabled recorder allocated %.1f times per request, want 0", allocs)
	}
}

func TestFlightRingEvictionByCount(t *testing.T) {
	r := NewRecorder(RecorderConfig{MaxEntries: 4, MaxBytes: 1 << 20, Slow: time.Hour})
	for i := 0; i < 10; i++ {
		captureNamed(r, fmt.Sprintf("req-%d", i), "translate", time.Millisecond)
	}
	d := r.Snapshot(FlightFilter{})
	if len(d.Entries) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(d.Entries))
	}
	if d.Dropped != 6 {
		t.Errorf("dropped = %d, want 6", d.Dropped)
	}
	// Oldest-first order, most recent retained.
	for i, e := range d.Entries {
		if want := fmt.Sprintf("req-%d", 6+i); e.RequestID != want {
			t.Errorf("entry %d is %q, want %q", i, e.RequestID, want)
		}
	}
	if d.Entries[0].Seq >= d.Entries[3].Seq {
		t.Error("seq not monotone across entries")
	}
}

func TestFlightRingEvictionByBytes(t *testing.T) {
	r := NewRecorder(RecorderConfig{MaxEntries: 1 << 20, MaxBytes: 600, Slow: time.Hour})
	for i := 0; i < 50; i++ {
		r.Event(fmt.Sprintf("req-%d", i), strings.Repeat("e", 40))
	}
	ring, _ := r.Len()
	if ring >= 50 || ring == 0 {
		t.Fatalf("byte cap did not bite: %d entries live", ring)
	}
	// A single entry larger than the whole budget is still admitted,
	// alone — an empty recorder would be useless.
	r2 := NewRecorder(RecorderConfig{MaxBytes: 10, Slow: time.Hour})
	r2.Event("big", strings.Repeat("x", 500))
	r2.Event("big2", strings.Repeat("y", 500))
	if ring, _ := r2.Len(); ring != 1 {
		t.Fatalf("over-budget admission kept %d entries, want exactly 1", ring)
	}
}

func TestFlightSlowPinning(t *testing.T) {
	r := NewRecorder(RecorderConfig{MaxEntries: 2, Slow: 100 * time.Millisecond, MaxPinned: 3})
	captureNamed(r, "slow-1", "translate", 150*time.Millisecond)
	for i := 0; i < 10; i++ {
		captureNamed(r, fmt.Sprintf("fast-%d", i), "translate", time.Millisecond)
	}
	d := r.Snapshot(FlightFilter{})
	if len(d.Pinned) != 1 || d.Pinned[0].RequestID != "slow-1" {
		t.Fatalf("slow trace not pinned past eviction: %+v", d.Pinned)
	}
	if !d.Pinned[0].Pinned {
		t.Error("pinned entry not marked")
	}
	// The pinned list itself is capped, oldest evicted.
	for i := 0; i < 5; i++ {
		captureNamed(r, fmt.Sprintf("slow-%d", 2+i), "translate", time.Second)
	}
	d = r.Snapshot(FlightFilter{})
	if len(d.Pinned) != 3 {
		t.Fatalf("pinned list holds %d, want cap 3", len(d.Pinned))
	}
	if d.Pinned[0].RequestID != "slow-4" {
		t.Errorf("pinned eviction kept %q first, want slow-4", d.Pinned[0].RequestID)
	}
}

func TestFlightFilters(t *testing.T) {
	r := NewRecorder(RecorderConfig{Slow: time.Hour})
	captureNamed(r, "a", "translate", 5*time.Millisecond)
	captureNamed(r, "b", "verify", 50*time.Millisecond)
	captureNamed(r, "b", "translate", time.Millisecond)
	r.Event("job-1", "quarantine", I("attempt", 3))

	if d := r.Snapshot(FlightFilter{RequestID: "b"}); len(d.Entries) != 2 {
		t.Errorf("request-ID filter: got %d, want 2", len(d.Entries))
	}
	if d := r.Snapshot(FlightFilter{Name: "verify"}); len(d.Entries) != 1 || d.Entries[0].RequestID != "b" {
		t.Errorf("name filter: %+v", d.Entries)
	}
	if d := r.Snapshot(FlightFilter{MinDur: 10 * time.Millisecond}); len(d.Entries) != 1 || d.Entries[0].Name != "verify" {
		t.Errorf("min-dur filter: %+v", d.Entries)
	}
	if d := r.Snapshot(FlightFilter{Limit: 2}); len(d.Entries) != 2 || d.Entries[0].RequestID != "b" {
		t.Errorf("limit keeps most recent: %+v", d.Entries)
	}
	d := r.Snapshot(FlightFilter{RequestID: "job-1"})
	if len(d.Entries) != 1 || d.Entries[0].Kind != "event" || len(d.Entries[0].Attrs) != 1 {
		t.Errorf("event entry: %+v", d.Entries)
	}
	// The dump must be plain JSON-serialisable (the /debug/flight shape).
	if _, err := json.Marshal(d); err != nil {
		t.Fatalf("dump not serialisable: %v", err)
	}
}

// TestFlightConcurrentCapture hammers the recorder from many goroutines
// completing spans at once; meaningful chiefly under -race. The ring
// must end exactly at its cap with every admission accounted for.
func TestFlightConcurrentCapture(t *testing.T) {
	r := NewRecorder(RecorderConfig{MaxEntries: 32, MaxBytes: 1 << 20, Slow: time.Hour})
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tr := NewTrace(fmt.Sprintf("w%d-%d", w, i))
				sp := tr.Start("translate")
				sp.StartChild("lad").End()
				sp.Event("tick", I("i", int64(i)))
				sp.End()
				r.Capture(tr)
				if i%5 == 0 {
					r.Snapshot(FlightFilter{Limit: 4})
				}
			}
		}(w)
	}
	wg.Wait()
	d := r.Snapshot(FlightFilter{})
	if len(d.Entries) != 32 {
		t.Fatalf("ring holds %d, want 32", len(d.Entries))
	}
	if got := d.Dropped + uint64(len(d.Entries)); got != workers*per {
		t.Fatalf("admissions unaccounted: dropped+live = %d, want %d", got, workers*per)
	}
	for _, e := range d.Entries {
		if len(e.Spans) != 2 {
			t.Fatalf("entry %q carries %d spans, want 2", e.RequestID, len(e.Spans))
		}
	}
}

func TestSpanEventsExport(t *testing.T) {
	tr := NewTrace("ev")
	sp := tr.Start("job.item")
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // Event is the one cross-goroutine mutator
		defer wg.Done()
		sp.Event("lease_extend", I("epoch", 2))
	}()
	wg.Wait()
	sp.Event("backoff", I("attempt", 1), I("delay_ns", 1000))
	sp.End()
	e := tr.Export()
	evs := e.Span("job.item").Events
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	byName := map[string][]Attr{}
	for _, ev := range evs {
		if ev.AtNS < 0 {
			t.Errorf("event %q has negative offset", ev.Name)
		}
		byName[ev.Name] = ev.Attrs
	}
	if len(byName["backoff"]) != 2 || byName["backoff"][0] != (Attr{Key: "attempt", Val: 1}) {
		t.Errorf("backoff attrs: %+v", byName["backoff"])
	}
	// Events survive the JSON round trip.
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseExport([]byte(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Span("job.item").Events) != 2 {
		t.Error("events lost in round trip")
	}
}
