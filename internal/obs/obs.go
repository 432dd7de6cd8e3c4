// Package obs is the pipeline's observability layer: a span tracer and
// its one-clock Layer timer, plus a structured (log/slog) logger, shared
// by the tdmagic one-shot CLI and the tdserve HTTP service.
//
// Design constraints, in order:
//
//  1. Zero cost when disabled. Tracing is opt-in per translation; a
//     request without a trace must not allocate or lock anything on the
//     hot path. Every method is nil-safe — StartSpan on a context without
//     a trace returns a nil *Span, and attribute/End calls on a nil span
//     are no-ops — so the pipeline code is written unconditionally and
//     the disabled path compiles down to a context lookup and a nil
//     check. TestNilTraceZeroAlloc pins this with testing.AllocsPerRun.
//
//  2. Deterministic identity. Span IDs are derived from the
//     per-translation request ID plus the span name and its occurrence
//     number, not from a global counter or the clock, so the same
//     request ID over the same picture yields the same span IDs — traces
//     diff cleanly across runs and machines.
//
//  3. Goroutine safety. The perception stages record spans from
//     concurrent goroutines (SED and OCR overlap); collection is a
//     mutex-protected append on the owning Trace.
//
// Durations come from the monotonic clock (time.Since), so a span can
// never be negative or jump under wall-clock adjustment. Span start
// times are stored as offsets from the trace epoch, which makes the
// exported JSON self-contained and comparable.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"tdmagic/internal/metrics"
)

// Attr is one span attribute. Attributes are integer-valued by design
// (counts, sizes, 0/1 flags): every quantity the pipeline records is a
// count, and a fixed value type keeps the export byte-stable and the
// round-trip lossless.
type Attr struct {
	Key string `json:"key"`
	Val int64  `json:"val"`
}

// SpanEvent is one timestamped point event inside a span: a retry, a
// backoff sleep, a decode-progress tick. Events carry the same integer
// attributes as spans so the export stays byte-stable.
type SpanEvent struct {
	Name  string        `json:"name"`
	At    time.Duration `json:"-"` // offset from the trace epoch
	Attrs []Attr        `json:"attrs,omitempty"`
}

// Span is one timed operation inside a trace. Fields are exported for
// inspection after collection; mutate spans only through
// Int/Bool/Event/End. Int/Bool/End are single-goroutine (the span
// owner's); Event alone may be called from other goroutines (a job
// worker recording a retry on the job's root span) — it serialises on
// the trace mutex.
type Span struct {
	ID     uint64        // deterministic, derived from the request ID
	Parent uint64        // 0 for a root span
	Name   string        // stage or operation name ("lad", "translate", ...)
	Start  time.Duration // offset from the trace epoch (monotonic)
	Dur    time.Duration // set by End
	Attrs  []Attr
	Events []SpanEvent // appended by Event, guarded by tr.mu

	tr    *Trace
	began time.Time
}

// Trace collects the spans of one translation request. Create one per
// request with NewTrace; a nil *Trace is a valid "tracing disabled"
// value on which every method no-ops.
type Trace struct {
	requestID string
	base      uint64 // fnv64a(requestID), the ID derivation root
	epoch     time.Time

	mu    sync.Mutex
	seq   map[string]uint64 // per-name occurrence counters
	spans []*Span           // finished spans, in End order
}

// NewTrace starts an empty trace for one request. The request ID seeds
// the deterministic span-ID derivation; use NewRequestID for serving
// traffic or any stable string (e.g. the input file path) for
// reproducible CLI traces.
func NewTrace(requestID string) *Trace {
	return &Trace{
		requestID: requestID,
		base:      fnv64a(requestID),
		epoch:     time.Now(),
		seq:       make(map[string]uint64),
	}
}

// RequestID returns the ID the trace was created with ("" on nil).
func (t *Trace) RequestID() string {
	if t == nil {
		return ""
	}
	return t.requestID
}

// fnv64a is the FNV-1a hash, inlined so obs stays dependency-free and
// allocation-free.
func fnv64a(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// spanID derives a deterministic nonzero span ID from the trace base,
// the span name and its occurrence number. Concurrent spans carry
// different names (or different occurrence numbers), so the derivation
// is stable under any goroutine interleaving.
func spanID(base uint64, name string, occurrence uint64) uint64 {
	const prime64 = 1099511628211
	h := base
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	h ^= occurrence
	h *= prime64
	if h == 0 {
		h = 1
	}
	return h
}

// newSpan starts a span under the given parent ID at now.
func (t *Trace) newSpan(parent uint64, name string, now time.Time) *Span {
	t.mu.Lock()
	n := t.seq[name]
	t.seq[name] = n + 1
	t.mu.Unlock()
	return &Span{
		ID:     spanID(t.base, name, n),
		Parent: parent,
		Name:   name,
		Start:  now.Sub(t.epoch),
		tr:     t,
		began:  now,
	}
}

// Start begins a root-level span. Nil-safe: a nil trace returns a nil
// span.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return t.newSpan(0, name, time.Now())
}

// StartChild begins a child span of s. Nil-safe.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s.ID, name, time.Now())
}

// Int records an integer attribute and returns the span for chaining.
// Nil-safe.
func (s *Span) Int(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Val: v})
	return s
}

// Bool records a 0/1 attribute. Nil-safe.
func (s *Span) Bool(key string, v bool) *Span {
	var n int64
	if v {
		n = 1
	}
	return s.Int(key, n)
}

// Event records a timestamped point event on the span. Unlike
// Int/Bool, Event is safe to call from a goroutine other than the
// span's owner (appends are serialised on the trace mutex), which is
// what job workers reporting onto the job's root span need. Nil-safe.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := SpanEvent{Name: name, At: time.Since(s.tr.epoch), Attrs: attrs}
	s.tr.mu.Lock()
	s.Events = append(s.Events, ev)
	s.tr.mu.Unlock()
}

// I builds one integer attribute, for Event call sites.
func I(key string, v int64) Attr { return Attr{Key: key, Val: v} }

// End stamps the span's duration from the monotonic clock and hands it
// to the trace. A span must be ended exactly once; spans never ended do
// not appear in the export. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.finish(time.Since(s.began))
}

// finish stamps the span's duration and hands it to the trace.
func (s *Span) finish(d time.Duration) {
	s.Dur = d
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// ctxKey carries either a *Span (the current parent) or a *Trace (a
// trace with no open parent yet) through a context; refKey carries the
// request ID of an untraced request. Zero-size keys keep the
// disabled-path Value lookups allocation-free.
type ctxKey struct{}
type refKey struct{}

// ContextWithTrace returns ctx carrying t, so the next StartSpan opens
// a root span of t. A nil trace returns ctx unchanged.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, t)
}

// ContextWithSpan returns ctx carrying s as the current parent span. A
// nil span returns ctx unchanged, so callers can thread contexts
// unconditionally.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// StartSpan begins a span under whatever the context carries: a child
// of the current span, a root span of the current trace, or nil when
// the context carries neither (tracing disabled).
func StartSpan(ctx context.Context, name string) *Span {
	return Begin(ctx, name, nil).Span
}

// spanParent returns the trace the context carries (nil when tracing is
// off) and the ID of its current span (0 when none is open).
func spanParent(ctx context.Context) (*Trace, uint64) {
	switch v := ctx.Value(ctxKey{}).(type) {
	case *Span:
		return v.tr, v.ID
	case *Trace:
		return v, 0
	}
	return nil, 0
}

// TraceFrom returns the trace the context carries (directly or via its
// current span), or nil. Allocation-free on the disabled path.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := spanParent(ctx)
	return t
}

// ContextWithRequestID returns ctx carrying id as the request (or job) ID
// its layers give their histograms as exemplar when no trace carries one.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, refKey{}, id)
}

// RequestIDFrom returns the request ID of the trace the context carries,
// else the one ContextWithRequestID attached, else "". Allocation-free
// either way, so hot paths can call it unconditionally.
func RequestIDFrom(ctx context.Context) string {
	if t := TraceFrom(ctx); t != nil {
		return t.requestID
	}
	id, _ := ctx.Value(refKey{}).(string)
	return id
}

// Layer times one step of a request or job with one clock: the duration
// between Begin and End goes to the layer's span, when the context
// carries a trace, and to its histogram, when it has one, with the
// request ID as exemplar. With neither it reads no clock and allocates
// nothing. Attributes go to the embedded span (nil when untraced).
type Layer struct {
	*Span
	hist  *metrics.Histogram
	ref   string
	began time.Time
}

// Begin starts the layer name under whatever ctx carries; h may be nil.
func Begin(ctx context.Context, name string, h *metrics.Histogram) Layer {
	t, parent := spanParent(ctx)
	if t == nil && h == nil {
		return Layer{}
	}
	l := Layer{hist: h, ref: RequestIDFrom(ctx), began: time.Now()}
	if t != nil {
		l.Span = t.newSpan(parent, name, l.began)
	}
	return l
}

// Context returns ctx with the layer as the parent of the layers under it.
func (l Layer) Context(ctx context.Context) context.Context {
	return ContextWithSpan(ctx, l.Span)
}

// End stops the layer's clock; end a layer exactly once.
func (l Layer) End() {
	if l.began.IsZero() {
		return
	}
	d := time.Since(l.began)
	if l.hist != nil {
		l.hist.ObserveExemplar(d.Seconds(), l.ref)
	}
	if l.Span != nil {
		l.Span.finish(d)
	}
}

// NewRequestID returns a fresh 16-hex-character request ID from
// crypto/rand, for correlating serving traffic across logs, headers and
// traces.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively unreachable; degrade to a
		// fixed ID rather than panicking in a request path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
