// Verification orchestration: the shared picture → spec → runtime
// verification path behind both `tdmagic -verify` and tdserve's
// POST /v1/verify. The caller supplies a compiled monitor.Spec (usually
// from a translated SPO plus datasheet delay bounds) and a VCD dump; the
// dump is streamed through the incremental monitor, never materialized,
// so verification memory is bounded by the spec, not the dump.
package core

import (
	"context"
	"io"

	"tdmagic/internal/ltl"
	"tdmagic/internal/metrics"
	"tdmagic/internal/monitor"
	"tdmagic/internal/obs"
	"tdmagic/internal/sva"
	"tdmagic/internal/vcd"
)

// VerifyMetrics bundles the tdverify_* series shared by every verification
// surface: verdict counts by outcome, streamed trace bytes, and the
// end-to-end monitor latency distribution.
type VerifyMetrics struct {
	VerdictPass *metrics.Counter
	VerdictFail *metrics.Counter
	TraceBytes  *metrics.Counter
	Latency     *metrics.Histogram
}

// NewVerifyMetrics registers the verification metric bundle on reg under
// the tdverify_ prefix and returns it.
func NewVerifyMetrics(reg *metrics.Registry) *VerifyMetrics {
	return &VerifyMetrics{
		VerdictPass: reg.LabeledCounter("tdverify_verdicts_total", `outcome="pass"`, "constraint verdicts by outcome"),
		VerdictFail: reg.LabeledCounter("tdverify_verdicts_total", `outcome="violation"`, "constraint verdicts by outcome"),
		TraceBytes:  reg.Counter("tdverify_trace_bytes_total", "VCD bytes streamed through the monitor"),
		Latency:     reg.Histogram("tdverify_check_seconds", "wall-clock verification latency (compile+parse+check)", nil),
	}
}

// VerifyOutcome is the complete result of one verification run.
type VerifyOutcome struct {
	// Result is the whole-run outcome, identical to monitor.Check over the
	// materialized trace.
	Result *monitor.Result
	// TraceBytes counts the VCD bytes consumed.
	TraceBytes int64
}

// CompileProperties renders the specification's LTL formula and SVA
// property text — the compiled forms the verify endpoints return next to
// the runtime verdicts.
func CompileProperties(ctx context.Context, spec *monitor.Spec) (ltlText, svaText string, err error) {
	l := obs.Begin(ctx, "verify.compile", nil)
	defer l.End()
	if ltlText, err = ltl.Formula(spec.SPO, spec.Delays); err != nil {
		return "", "", err
	}
	if svaText, err = sva.Export(spec.SPO, spec.Delays, sva.Options{}); err != nil {
		return "", "", err
	}
	return ltlText, svaText, nil
}

// VerifyStream streams the VCD document through the incremental monitor
// under the context's deadline. emit, if non-nil, receives each
// constraint verdict as soon as it is final — before the dump has
// finished parsing when the endpoints resolve early. The context is
// checked between decode events, so deadlines cut long dumps off. The
// stage is the "monitor.verify_stream" layer: one clock reading for its
// span and for m's latency histogram. m may be nil.
func VerifyStream(ctx context.Context, spec *monitor.Spec, dump io.Reader, emit func(monitor.Verdict), m *VerifyMetrics) (*VerifyOutcome, error) {
	var h *metrics.Histogram
	if m != nil {
		h = m.Latency
	}
	l := obs.Begin(ctx, "monitor.verify_stream", h)
	defer l.End()
	out := &VerifyOutcome{}
	checker, err := monitor.NewStream(spec, emit)
	if err != nil {
		return nil, err
	}
	sink := &ctxSink{ctx: ctx, s: checker, sp: l.Span}
	dec := vcd.NewDecoder(dump, sink)
	sink.bytes = dec.Bytes
	err = dec.Run()
	out.TraceBytes = dec.Bytes()
	if m != nil {
		m.TraceBytes.Add(out.TraceBytes)
	}
	if err != nil {
		return nil, err
	}
	if out.Result, err = checker.Finish(); err != nil {
		return nil, err
	}
	l.Int("trace_bytes", out.TraceBytes).
		Int("resident", int64(checker.MaxResident())).
		Int("violations", int64(len(out.Result.Violations)))
	if m != nil {
		for _, v := range monitor.ResultVerdicts(spec, out.Result) {
			if v.Pass {
				m.VerdictPass.Inc()
			} else {
				m.VerdictFail.Inc()
			}
		}
	}
	return out, nil
}

// VerifyProgressInterval is the decode-event stride between progress
// span events on a traced verification: every this many value changes,
// the "monitor.verify_stream" span gains a "progress" event carrying the event
// count and the dump byte offset, so a long check's advance is visible
// in the flight recorder while it runs.
const VerifyProgressInterval = 8192

// ctxSink forwards decoder events to the stream checker, surfacing
// context cancellation between events so a request deadline terminates
// the decode of an arbitrarily long dump, and — when the check runs
// under a trace — recording periodic progress events with byte offsets.
type ctxSink struct {
	ctx   context.Context
	s     *monitor.StreamChecker
	sp    *obs.Span    // "monitor.verify_stream"; nil when tracing is disabled
	bytes func() int64 // decoder byte offset, wired after construction
	n     int
}

func (c *ctxSink) Declare(name string, binary bool) int {
	return c.s.Declare(name, binary)
}

func (c *ctxSink) Change(h int, t, v float64) error {
	if c.n++; c.n&1023 == 0 {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		// The nil guard keeps the untraced path free of the variadic
		// argument allocation Event would otherwise force.
		if c.sp != nil && c.n%VerifyProgressInterval == 0 {
			c.sp.Event("progress", obs.I("events", int64(c.n)), obs.I("bytes", c.bytes()))
		}
	}
	return c.s.Change(h, t, v)
}
