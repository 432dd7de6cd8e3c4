package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestNilSafety(t *testing.T) {
	var tr *Trace
	sp := tr.Start("x")
	if sp != nil {
		t.Fatal("nil trace produced a span")
	}
	// Every span method must no-op on nil.
	sp.Int("k", 1).Bool("b", true)
	sp.StartChild("c").End()
	sp.End()
	if tr.Export() != nil {
		t.Error("nil trace exported non-nil")
	}
	if tr.RequestID() != "" {
		t.Error("nil trace has a request ID")
	}
	ctx := context.Background()
	if ContextWithTrace(ctx, nil) != ctx {
		t.Error("ContextWithTrace(nil) wrapped the context")
	}
	if ContextWithSpan(ctx, nil) != ctx {
		t.Error("ContextWithSpan(nil) wrapped the context")
	}
	if l := Begin(ctx, "x", nil); l.Span != nil {
		t.Error("Begin without a trace returned a span")
	}
}

// TestNilTraceZeroAlloc pins the "zero-alloc when disabled" contract:
// the exact obs call sequence the Translate hot path performs — a
// context-lookup Begin, attribute records, the layer's context wrap and
// End — must not allocate when no trace is attached.
func TestNilTraceZeroAlloc(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		l := Begin(ctx, "translate", nil)
		ctx = l.Context(ctx)
		l.Int("width", 900).Int("diags", 0).Bool("error", false)
		l.Event("tick")
		if RequestIDFrom(ctx) != "" {
			t.Fatal("request ID on a trace-free context")
		}
		l.End()
	})
	if allocs != 0 {
		t.Errorf("disabled tracing allocated %.1f times per translation, want 0", allocs)
	}
}

func TestDeterministicIDs(t *testing.T) {
	build := func() *Export {
		tr := NewTrace("req-42")
		root := tr.Start("translate")
		root.StartChild("lad").Int("v", 3).End()
		root.StartChild("sed").End()
		root.StartChild("sed").End() // second occurrence: distinct ID
		root.End()
		return tr.Export()
	}
	a, b := build(), build()
	if len(a.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(a.Spans))
	}
	for i := range a.Spans {
		if a.Spans[i].ID != b.Spans[i].ID || a.Spans[i].Parent != b.Spans[i].Parent {
			t.Errorf("span %d IDs differ across identical runs: %+v vs %+v", i, a.Spans[i], b.Spans[i])
		}
		if a.Spans[i].ID == 0 {
			t.Errorf("span %d has zero ID", i)
		}
	}
	// The two "sed" occurrences must not collide.
	var sedIDs []uint64
	for _, s := range a.Spans {
		if s.Name == "sed" {
			sedIDs = append(sedIDs, s.ID)
		}
	}
	if len(sedIDs) != 2 || sedIDs[0] == sedIDs[1] {
		t.Errorf("repeated span name did not get distinct IDs: %v", sedIDs)
	}
	// A different request ID derives different span IDs.
	other := NewTrace("req-43")
	sp := other.Start("translate")
	sp.End()
	if other.Export().Spans[0].ID == a.Spans[0].ID {
		t.Error("different request IDs produced the same span ID")
	}
}

func TestContextThreading(t *testing.T) {
	tr := NewTrace("ctx")
	ctx := ContextWithTrace(context.Background(), tr)
	root := Begin(ctx, "root", nil).Span
	if root == nil || root.Parent != 0 {
		t.Fatalf("Begin on trace context: got %+v, want root span", root)
	}
	ctx = ContextWithSpan(ctx, root)
	child := Begin(ctx, "child", nil).Span
	if child == nil || child.Parent != root.ID {
		t.Fatalf("Begin on span context: got %+v, want child of %d", child, root.ID)
	}
	child.End()
	root.End()
	e := tr.Export()
	if len(e.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(e.Spans))
	}
	if e.Span("child").Parent != e.Span("root").ID {
		t.Error("exported parent link broken")
	}
}

// TestExportRoundTrip pins the satellite requirement: export → JSON →
// parse reproduces the identical spans.
func TestExportRoundTrip(t *testing.T) {
	tr := NewTrace("round-trip")
	root := tr.Start("translate")
	time.Sleep(time.Millisecond)
	root.StartChild("lad").Int("v_contours", 7).Int("h_contours", 5).End()
	root.StartChild("sei").Bool("repaired", true).End()
	root.Int("diags", 2).End()

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseExport(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Export()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip drift:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestParseExportRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		`{`,
		`{"request_id":"x","spans":[{"id":1,"start_ns":0,"dur_ns":5}]}`,  // unnamed span
		`{"request_id":"x","spans":[{"id":1,"name":"a","dur_ns":-5}]}`,   // negative duration
		`{"request_id":"x","spans":[{"id":1,"name":"a","start_ns":-1}]}`, // negative start
	} {
		if _, err := ParseExport([]byte(bad)); err == nil {
			t.Errorf("ParseExport accepted %q", bad)
		}
	}
}

func TestChromeExport(t *testing.T) {
	tr := NewTrace("chrome")
	root := tr.Start("translate")
	root.StartChild("lad").Int("v", 1).End()
	root.End()
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TID  int     `json:"tid"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		// A child nested in its parent must share the parent's track.
		if ev.TID != 1 {
			t.Errorf("nested event %q moved to track %d, want 1", ev.Name, ev.TID)
		}
	}
}

// TestConcurrentSpanRecording hammers one shared trace from many
// goroutines — the SED ∥ OCR shape, widened — and is meaningful chiefly
// under -race (ci.sh runs the suite with the race detector).
func TestConcurrentSpanRecording(t *testing.T) {
	tr := NewTrace("concurrent")
	root := tr.Start("translate")
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				sp := root.StartChild("stage")
				sp.Int("i", int64(i))
				sp.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	e := tr.Export()
	if len(e.Spans) != workers*perWorker+1 {
		t.Fatalf("got %d spans, want %d", len(e.Spans), workers*perWorker+1)
	}
	ids := make(map[uint64]bool, len(e.Spans))
	for _, s := range e.Spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span ID %d under concurrency", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || len(b) != 16 {
		t.Fatalf("request IDs %q/%q are not 16 hex chars", a, b)
	}
	if a == b {
		t.Error("two request IDs collided")
	}
}
