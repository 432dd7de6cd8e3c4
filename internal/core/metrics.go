package core

import (
	"context"
	"errors"

	"tdmagic/internal/diag"
	"tdmagic/internal/metrics"
	"tdmagic/internal/obs"
)

// PipelineMetrics bundles the translation-level counters every execution
// surface shares. The CLI, the batch path (TranslateAllCtx) and the
// tdserve worker pool all record into the same bundle, so "translations
// per second" or "p99 translate latency" mean the same thing whether they
// come from a tdeval run or a serving /metrics scrape.
//
// All fields are recorded atomically; a single bundle may be attached to a
// pipeline shared by many goroutines.
type PipelineMetrics struct {
	// Translations counts completed TranslateContext calls, successful or
	// not.
	Translations *metrics.Counter
	// Failures counts translations that returned an error (in graceful
	// mode that is almost always a context error; in strict mode it also
	// covers degraded inputs and interpretations).
	Failures *metrics.Counter
	// Timeouts counts translations cancelled by a deadline, a subset of
	// Failures.
	Timeouts *metrics.Counter
	// Panics counts batch items recovered from a panic (batch path only;
	// a direct TranslateContext call propagates panics).
	Panics *metrics.Counter
	// Diagnostics counts degradation diagnostics across all translations.
	Diagnostics *metrics.Counter
	// Latency is the wall-clock distribution of TranslateContext calls.
	Latency *metrics.Histogram
	// Layers maps each pipeline layer to the histogram it feeds:
	// "core.translate" to Latency, each stage (see stageLayers) to its
	// series of the tdmagic_stage_seconds vector. SED and OCR overlap, so
	// their sums can exceed tdmagic_translate_seconds.
	Layers map[string]*metrics.Histogram
}

// stageLayers pairs each pipeline stage's layer name, the name tdbench
// reports it under, with its tdmagic_stage_seconds label
// (stage="binarize"|"lad"|"sed"|"ocr"|"sei").
var stageLayers = [...][2]string{
	{"imgproc.binarize", "binarize"},
	{"lad.detect", "lad"},
	{"sed.detect", "sed"},
	{"ocr.read", "ocr"},
	{"sei.interpret", "sei"},
}

// NewPipelineMetrics registers the translation metric bundle on reg under
// the tdmagic_ prefix and returns it.
func NewPipelineMetrics(reg *metrics.Registry) *PipelineMetrics {
	m := &PipelineMetrics{
		Translations: reg.Counter("tdmagic_translations_total", "completed translations"),
		Failures:     reg.Counter("tdmagic_translate_failures_total", "translations that returned an error"),
		Timeouts:     reg.Counter("tdmagic_translate_timeouts_total", "translations cancelled by a deadline"),
		Panics:       reg.Counter("tdmagic_translate_panics_total", "batch items recovered from a panic"),
		Diagnostics:  reg.Counter("tdmagic_translate_diags_total", "degradation diagnostics emitted"),
		Latency:      reg.Histogram("tdmagic_translate_seconds", "translation wall-clock latency", nil),
	}
	m.Layers = map[string]*metrics.Histogram{"core.translate": m.Latency}
	for _, s := range stageLayers {
		m.Layers[s[0]] = reg.LabeledHistogram("tdmagic_stage_seconds", `stage="`+s[1]+`"`,
			"per-stage wall-clock latency", nil)
	}
	return m
}

// layer begins the pipeline layer name, feeding its histogram when p
// has metrics.
func (p *Pipeline) layer(ctx context.Context, name string) obs.Layer {
	var h *metrics.Histogram
	if p.Metrics != nil {
		h = p.Metrics.Layers[name]
	}
	return obs.Begin(ctx, name, h)
}

// observe counts one finished translation (its latency went to Latency
// through the core.translate layer). Nil-safe.
func (m *PipelineMetrics) observe(rep *Report, err error) {
	if m == nil {
		return
	}
	m.Translations.Inc()
	if err != nil {
		m.Failures.Inc()
		if errors.Is(err, context.DeadlineExceeded) {
			m.Timeouts.Inc()
		}
	}
	if rep != nil {
		m.Diagnostics.Add(int64(len(rep.Diags)))
	}
}

// observeBatchPanic records a recovered batch-item panic. The deferred
// observation in TranslateContext still ran while the panic unwound, but
// with a nil error — the recovery path is the only place that knows the
// item actually failed.
func (m *PipelineMetrics) observeBatchPanic() {
	m.Panics.Inc()
	m.Failures.Inc()
}

// diagStageError reports whether ds contains an error-severity diagnostic
// from the given stage; serving uses it to map refused inputs to client
// errors.
func diagStageError(ds []diag.Diagnostic, stage string) bool {
	for _, d := range ds {
		if d.Stage == stage && d.Severity == diag.Error {
			return true
		}
	}
	return false
}

// InputRefused reports whether rep records an up-front input refusal
// (nil/degenerate/oversized/uniform picture). In graceful mode such a
// translation "succeeds" with an empty SPO; a serving layer wants to
// surface it as a 4xx instead.
func InputRefused(rep *Report) bool {
	return rep != nil && diagStageError(rep.Diags, diag.StageInput)
}
