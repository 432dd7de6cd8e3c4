package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"tdmagic/internal/imgproc"
	"tdmagic/internal/metrics"
)

// TestPipelineMetricsRecording verifies the shared metric bundle sees every
// translation surface: direct Translate calls, batch items, recovered
// panics and deadline cancellations all land in the same counters.
func TestPipelineMetricsRecording(t *testing.T) {
	pipe, val := trainSmall(t)
	reg := metrics.NewRegistry()
	pipe.Metrics = NewPipelineMetrics(reg)
	defer func() { pipe.Metrics = nil }()

	// Two direct translations.
	for _, s := range val[:2] {
		if _, _, err := pipe.Translate(s.Image); err != nil {
			t.Fatal(err)
		}
	}
	if got := pipe.Metrics.Translations.Value(); got != 2 {
		t.Errorf("translations = %d, want 2", got)
	}
	if got := pipe.Metrics.Latency.Count(); got != 2 {
		t.Errorf("latency count = %d, want 2", got)
	}

	// A batch over the same pictures adds to the same counters.
	imgs := []*imgproc.Gray{val[0].Image, val[1].Image}
	pipe.TranslateAllCtx(context.Background(), imgs, BatchOptions{Workers: 2})
	if got := pipe.Metrics.Translations.Value(); got != 4 {
		t.Errorf("translations after batch = %d, want 4", got)
	}

	// A recovered batch panic counts as panic + failure.
	batchHook = func(index int) { panic("boom") }
	res := pipe.TranslateAllCtx(context.Background(), imgs[:1], BatchOptions{Workers: 1})
	batchHook = nil
	if res[0].Err == nil {
		t.Fatal("panic not surfaced")
	}
	if got := pipe.Metrics.Panics.Value(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if got := pipe.Metrics.Failures.Value(); got != 1 {
		t.Errorf("failures = %d, want 1", got)
	}

	// A stalled item past its deadline counts as timeout + failure.
	batchHook = func(index int) { time.Sleep(50 * time.Millisecond) }
	res = pipe.TranslateAllCtx(context.Background(), imgs[:1],
		BatchOptions{Workers: 1, Timeout: time.Millisecond})
	batchHook = nil
	if res[0].Err == nil {
		t.Fatal("deadline not surfaced")
	}
	if got := pipe.Metrics.Timeouts.Value(); got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}

	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"tdmagic_translations_total",
		"tdmagic_translate_seconds_bucket",
		"tdmagic_translate_panics_total 1",
		"tdmagic_translate_timeouts_total 1",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestInputRefused distinguishes refused inputs from clean reports.
func TestInputRefused(t *testing.T) {
	pipe, val := trainSmall(t)
	_, rep, err := pipe.Translate(imgproc.NewGray(2, 2))
	if err != nil {
		t.Fatalf("graceful mode returned error: %v", err)
	}
	if !InputRefused(rep) {
		t.Error("degenerate input not flagged as refused")
	}
	_, rep, err = pipe.Translate(val[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	if InputRefused(rep) {
		t.Error("clean translation flagged as refused")
	}
}
