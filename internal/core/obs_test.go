package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmagic/internal/metrics"
	"tdmagic/internal/obs"
)

// TestTraceSpans pins the trace a translation records: one root span with
// all four stage spans nested under it, each stage's interval contained in
// the root's. Durations are not summed against the parent because SED and
// OCR deliberately overlap.
func TestTraceSpans(t *testing.T) {
	pipe, val := trainSmall(t)
	tr := obs.NewTrace("test-req")
	ctx := obs.ContextWithTrace(context.Background(), tr)
	if _, _, err := pipe.TranslateContext(ctx, val[0].Image); err != nil {
		t.Fatal(err)
	}
	e := tr.Export()
	root := e.Span("core.translate")
	if root == nil {
		t.Fatal("no core.translate root span")
	}
	if root.Parent != 0 {
		t.Errorf("root span has parent %d", root.Parent)
	}
	for _, stage := range []string{"lad.detect", "sed.detect", "ocr.read", "sei.interpret"} {
		sp := e.Span(stage)
		if sp == nil {
			t.Errorf("missing %s span", stage)
			continue
		}
		if sp.Parent != root.ID {
			t.Errorf("%s span parent = %d, want root %d", stage, sp.Parent, root.ID)
		}
		if sp.StartNS < root.StartNS || sp.StartNS+sp.DurNS > root.StartNS+root.DurNS {
			t.Errorf("%s span [%d,%d] escapes root [%d,%d]",
				stage, sp.StartNS, sp.StartNS+sp.DurNS, root.StartNS, root.StartNS+root.DurNS)
		}
	}
	// Stage attributes carry the detector counts.
	var attrs []string
	for _, a := range e.Span("lad.detect").Attrs {
		attrs = append(attrs, a.Key)
	}
	if !strings.Contains(strings.Join(attrs, ","), "v_contours") {
		t.Errorf("lad span missing contour-count attrs: %v", attrs)
	}
}

// TestDisabledTracingZeroAllocOnHotPath is the AllocsPerRun guard of the
// zero-alloc-when-disabled contract: it runs the obs call sequence the
// Translate hot path performs — the core.translate layer, its context
// wrap, one layer per stage with attribute records, the root's
// attributes — on a context with no trace attached, once without
// histograms and once with them (the metrics-on translation untraced),
// and requires zero allocations either way. An allocating pattern
// slipped into the sequence fails here.
func TestDisabledTracingZeroAllocOnHotPath(t *testing.T) {
	stages := [...]string{"imgproc.binarize", "lad.detect", "sed.detect", "ocr.read", "sei.interpret"}
	h := metrics.NewRegistry().Histogram("h", "", nil)
	for _, hist := range []*metrics.Histogram{nil, h} {
		ctx := context.Background()
		allocs := testing.AllocsPerRun(1000, func() {
			root := obs.Begin(ctx, "core.translate", hist)
			ctx := root.Context(ctx)
			for _, stage := range stages {
				l := obs.Begin(ctx, stage, hist)
				l.Int("boxes", 0).Bool("error", false)
				l.End()
			}
			root.Int("diags", 0).Bool("error", false)
			root.End()
		})
		if allocs != 0 {
			t.Errorf("disabled tracing (histogram %v) allocated %.1f times per translation, want 0", hist != nil, allocs)
		}
	}
	if h.Count() == 0 {
		t.Error("the histogram pass observed nothing")
	}
}

// TestStageLayersOneClock pins the one-timer-per-layer contract: on a
// traced translation with metrics, each stage's tdmagic_stage_seconds
// observation and the translation's tdmagic_translate_seconds
// observation equal their spans' durations exactly, since one clock
// reading feeds both.
func TestStageLayersOneClock(t *testing.T) {
	pipe, val := trainSmall(t)
	reg := metrics.NewRegistry()
	withMetrics := *pipe
	withMetrics.Metrics = NewPipelineMetrics(reg)
	tr := obs.NewTrace("one-clock")
	if _, _, err := withMetrics.TranslateContext(obs.ContextWithTrace(context.Background(), tr), val[0].Image); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	sums := map[string]float64{}
	for _, line := range strings.Split(buf.String(), "\n") {
		var key string
		var v float64
		if f := strings.Fields(line); len(f) == 2 && strings.Contains(f[0], "_sum") {
			key = f[0]
			if _, err := fmt.Sscan(f[1], &v); err != nil {
				t.Fatal(err)
			}
			sums[key] = v
		}
	}
	e := tr.Export()
	for span, series := range map[string]string{
		"core.translate":   `tdmagic_translate_seconds_sum`,
		"imgproc.binarize": `tdmagic_stage_seconds_sum{stage="binarize"}`,
		"lad.detect":       `tdmagic_stage_seconds_sum{stage="lad"}`,
		"sed.detect":       `tdmagic_stage_seconds_sum{stage="sed"}`,
		"ocr.read":         `tdmagic_stage_seconds_sum{stage="ocr"}`,
		"sei.interpret":    `tdmagic_stage_seconds_sum{stage="sei"}`,
	} {
		sp := e.Span(span)
		if sp == nil {
			t.Errorf("no %s span", span)
			continue
		}
		got, ok := sums[series]
		if !ok {
			t.Errorf("exposition has no %s", series)
			continue
		}
		if want := time.Duration(sp.DurNS).Seconds(); got != want {
			t.Errorf("%s observed %v s, its span lasted %v s", series, got, want)
		}
	}
}

// TestConcurrentTracedTranslations runs per-request traces against one
// shared Pipeline from many goroutines — the tdserve shape — and checks
// every trace collected its own complete span set. Chiefly meaningful
// under the race detector (ci.sh runs the suite with -race).
func TestConcurrentTracedTranslations(t *testing.T) {
	pipe, val := trainSmall(t)
	const workers = 4
	traces := make([]*obs.Trace, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr := obs.NewTrace(fmt.Sprintf("req-%d", w))
			traces[w] = tr
			ctx := obs.ContextWithTrace(context.Background(), tr)
			if _, _, err := pipe.TranslateContext(ctx, val[w%len(val)].Image); err != nil {
				t.Error(err)
			}
		}(w)
	}
	wg.Wait()
	for w, tr := range traces {
		e := tr.Export()
		for _, stage := range []string{"core.translate", "lad.detect", "sed.detect", "ocr.read", "sei.interpret"} {
			if e.Span(stage) == nil {
				t.Errorf("worker %d trace missing %s span", w, stage)
			}
		}
	}
}

// TestProvenanceResolves pins the provenance contract on fixed-seed
// pictures: the SPO carries one provenance entry per node and constraint,
// every non-negative ID resolves to a box or contour that actually exists
// in the detector output, and the provenance survives a JSON round-trip.
func TestProvenanceResolves(t *testing.T) {
	pipe, val := trainSmall(t)
	resolvedNodes := 0
	for _, s := range val {
		got, rep, err := pipe.Translate(s.Image)
		if err != nil {
			continue
		}
		if len(got.NodeProv) != len(got.Nodes) {
			t.Fatalf("%s: %d nodes but %d provenance entries", s.Name, len(got.Nodes), len(got.NodeProv))
		}
		if len(got.ConstraintProv) != len(got.Constraints) {
			t.Fatalf("%s: %d constraints but %d provenance entries",
				s.Name, len(got.Constraints), len(got.ConstraintProv))
		}
		nodes, cons, err := ResolveProvenance(rep, got)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for ni, ev := range nodes {
			if ev.EdgeBox == nil {
				continue
			}
			resolvedNodes++
			found := false
			for _, d := range rep.Edges {
				if d.Box == *ev.EdgeBox {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s: node %d edge-box evidence %v is not a detector box", s.Name, ni, *ev.EdgeBox)
			}
			if ev.VLine == nil {
				t.Errorf("%s: node %d has an edge box but no event line", s.Name, ni)
			}
		}
		for ci, ev := range cons {
			if ev.SrcVLine == nil || ev.DstVLine == nil {
				t.Errorf("%s: constraint %d missing anchor vline evidence", s.Name, ci)
			}
		}
		// Provenance must survive the SPO's JSON serialization.
		data, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		back := got.Clone()
		back.NodeProv, back.ConstraintProv = nil, nil
		if err := json.Unmarshal(data, back); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back.NodeProv, got.NodeProv) ||
			!reflect.DeepEqual(back.ConstraintProv, got.ConstraintProv) {
			t.Errorf("%s: provenance did not survive JSON round-trip", s.Name)
		}
	}
	if resolvedNodes == 0 {
		t.Error("no node resolved to an edge box across the validation set")
	}
}

// TestStageMetrics checks the tdmagic_stage_seconds histogram vector
// records one observation per stage per translation.
func TestStageMetrics(t *testing.T) {
	pipe, val := trainSmall(t)
	reg := metrics.NewRegistry()
	m := NewPipelineMetrics(reg)
	withMetrics := *pipe
	withMetrics.Metrics = m
	if _, _, err := withMetrics.Translate(val[0].Image); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, stage := range []string{"lad", "sed", "ocr", "sei"} {
		want := fmt.Sprintf(`tdmagic_stage_seconds_count{stage=%q} 1`, stage)
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}
