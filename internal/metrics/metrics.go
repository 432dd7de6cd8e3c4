// Package metrics provides the lightweight observability layer shared by
// every execution surface of the pipeline: the tdserve HTTP service, the
// batch translation path and the evaluation harness all record into the
// same counter and histogram types, so a number reported by tdeval means
// exactly what the same number means on a serving dashboard.
//
// The package is dependency-free and allocation-free on the hot path:
// counters are single atomics, histograms are fixed-bucket atomic arrays,
// and both are safe for concurrent use without locks. Exposition follows
// the Prometheus text format (one `# TYPE` line per metric, `_bucket`/
// `_sum`/`_count` series for histograms) in deterministic registration
// order, so scrapes are byte-stable for a fixed sequence of observations.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down (e.g. in-flight
// requests, queue occupancy).
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n and returns the new value, so a gauge can double as the
// atomic occupancy check of a bounded queue.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram. Bounds are upper
// bounds in ascending order; an implicit +Inf bucket catches the rest.
// Observations update one bucket counter and a float64 sum encoded in an
// atomic uint64, so concurrent Observe calls never lock.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // math.Float64bits of the running sum

	// ex holds the most recent exemplar per bucket (nil until a caller
	// uses ObserveExemplar with a non-empty ref). Plain Observe never
	// touches it, so the exemplar-free hot path stays allocation-free
	// and the exposition stays byte-identical for exemplar-free series.
	ex []atomic.Pointer[Exemplar] // len(bounds)+1, parallel to counts
}

// Exemplar links one recorded observation back to the request or job
// that produced it, so a latency spike in a histogram bucket points at
// a concrete flight-recorder / access-log entry instead of a number.
type Exemplar struct {
	Ref string  // request ID or job ID
	Val float64 // the observed value
}

// DefBuckets are the default latency bounds in seconds, spanning sub-ms
// kernel work to multi-second degraded translations.
var DefBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// newHistogram builds a histogram with the given ascending upper bounds.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Int64, len(b)+1),
		ex:     make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.observe(v)
}

// ObserveExemplar records one value and remembers ref (a request or job
// ID) as the most recent exemplar of the bucket the value lands in. An
// empty ref degrades to a plain Observe, so call sites can pass
// whatever ID the context carries — "" when tracing is disabled.
func (h *Histogram) ObserveExemplar(v float64, ref string) {
	i := h.observe(v)
	if ref != "" {
		h.ex[i].Store(&Exemplar{Ref: ref, Val: v})
	}
}

// BucketExemplar returns the most recent exemplar of bucket i (bounds
// index; len(bounds) is +Inf), or nil.
func (h *Histogram) BucketExemplar(i int) *Exemplar {
	if i < 0 || i >= len(h.ex) {
		return nil
	}
	return h.ex[i].Load()
}

func (h *Histogram) observe(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return i
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// metric is one registered series: a name, an optional constant label
// set (rendered inside the braces of every exposed sample), and exactly
// one collector.
type metric struct {
	name, help string
	labels     string // e.g. `stage="lad"`; "" for unlabelled series
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	fn         func() float64 // computed-at-scrape gauge
}

// Registry holds named metrics and renders them as text. Registration
// takes a lock; recorded values are read with atomics only.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]int{}}
}

// Counter registers (or returns the existing) counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].counter
	}
	c := &Counter{}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, counter: c})
	return c
}

// Gauge registers (or returns the existing) gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].gauge
	}
	g := &Gauge{}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, gauge: g})
	return g
}

// Histogram registers (or returns the existing) histogram under name with
// the given upper bounds (nil means DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		return r.metrics[i].hist
	}
	h := newHistogram(bounds)
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, hist: h})
	return h
}

// LabeledHistogram registers (or returns the existing) histogram under
// name with a constant label set, e.g.
//
//	r.LabeledHistogram("tdmagic_stage_seconds", `stage="lad"`, "…", nil)
//
// Several label sets may share one name; the exposition emits the HELP
// and TYPE header once per name and renders the labels inside every
// sample's braces, merged with the histogram's own le label — the
// Prometheus convention for a histogram vector.
func (r *Registry) LabeledHistogram(name, labels, help string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	if i, ok := r.byName[key]; ok {
		return r.metrics[i].hist
	}
	h := newHistogram(bounds)
	r.byName[key] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, labels: labels, help: help, hist: h})
	return h
}

// LabeledCounter registers (or returns the existing) counter under name
// with a constant label set, e.g.
//
//	r.LabeledCounter("tdverify_verdicts_total", `outcome="pass"`, "…")
//
// Several label sets may share one name — the counter-vector analogue of
// LabeledHistogram: one HELP/TYPE header per name, labels rendered inside
// every sample's braces.
func (r *Registry) LabeledCounter(name, labels, help string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + "{" + labels + "}"
	if i, ok := r.byName[key]; ok {
		return r.metrics[i].counter
	}
	c := &Counter{}
	r.byName[key] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, labels: labels, help: help, counter: c})
	return c
}

// GaugeFunc registers a gauge whose float value is computed at scrape
// time — the natural shape for derived series like a cache hit ratio,
// which would drift if maintained as a stored value next to the
// counters it is computed from.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name: name, help: help, fn: fn})
}

// series renders a sample name with the metric's constant labels and an
// optional extra label (the histogram le), e.g.
// `tdmagic_stage_seconds_bucket{stage="lad",le="0.005"}`.
func series(name, suffix, labels, extra string) string {
	full := name + suffix
	switch {
	case labels == "" && extra == "":
		return full
	case labels == "":
		return full + "{" + extra + "}"
	case extra == "":
		return full + "{" + labels + "}"
	default:
		return full + "{" + labels + "," + extra + "}"
	}
}

// WriteText renders every registered metric in the Prometheus text format,
// in registration order. Labelled series sharing one name get a single
// HELP/TYPE header, emitted at the first series' position.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := append([]metric(nil), r.metrics...)
	r.mu.Unlock()
	headed := make(map[string]bool, len(ms))
	for _, m := range ms {
		if !headed[m.name] {
			headed[m.name] = true
			if m.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
					return err
				}
			}
			kind := "counter"
			switch {
			case m.gauge != nil || m.fn != nil:
				kind = "gauge"
			case m.hist != nil:
				kind = "histogram"
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", m.name, kind); err != nil {
				return err
			}
		}
		var err error
		switch {
		case m.counter != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", series(m.name, "", m.labels, ""), m.counter.Value())
		case m.gauge != nil:
			_, err = fmt.Fprintf(w, "%s %d\n", series(m.name, "", m.labels, ""), m.gauge.Value())
		case m.fn != nil:
			_, err = fmt.Fprintf(w, "%s %g\n", series(m.name, "", m.labels, ""), m.fn())
		case m.hist != nil:
			err = writeHistogram(w, m.name, m.labels, m.hist)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket/_sum/_count series,
// then one `# EXEMPLAR` comment line per bucket that has recorded an
// exemplar: the bucket series, the originating request/job ID and the
// observed value. Comments keep the exposition valid for any
// Prometheus text parser while still exposing the metric→trace link;
// the block is deterministic for a fixed sequence of observations
// (most recent exemplar per bucket, buckets in bound order).
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		le := fmt.Sprintf("le=%q", formatBound(ub))
		if _, err := fmt.Fprintf(w, "%s %d\n", series(name, "_bucket", labels, le), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s %d\n%s %g\n%s %d\n",
		series(name, "_bucket", labels, `le="+Inf"`), cum,
		series(name, "_sum", labels, ""), h.Sum(),
		series(name, "_count", labels, ""), cum); err != nil {
		return err
	}
	for i := range h.ex {
		e := h.ex[i].Load()
		if e == nil {
			continue
		}
		le := `le="+Inf"`
		if i < len(h.bounds) {
			le = fmt.Sprintf("le=%q", formatBound(h.bounds[i]))
		}
		if _, err := fmt.Fprintf(w, "# EXEMPLAR %s %s %g\n",
			series(name, "_bucket", labels, le), e.Ref, e.Val); err != nil {
			return err
		}
	}
	return nil
}

// formatBound renders a bucket bound the way Prometheus does: shortest
// decimal representation.
func formatBound(v float64) string {
	return fmt.Sprintf("%g", v)
}
