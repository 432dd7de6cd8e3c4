package obs

import (
	"sync"
	"time"
)

// Flight recorder: a bounded in-memory ring of recently completed
// traces and structured events, so "what just happened" survives long
// enough to be asked about. The ring is capped by entry count AND by an
// estimated byte budget, whichever bites first; slow outliers — any
// entry whose root span exceeds the configured threshold — are pinned
// into a separate capped list so a burst of fast traffic cannot evict
// the one trace worth keeping.
//
// A nil *Recorder is the disabled state: every method no-ops without
// allocating, mirroring the nil-span design (TestNilRecorderZeroAlloc
// pins this). Enabled, captures take one short mutex hold; traces are
// exported (snapshot-copied) before the lock so capture cost is
// proportional to the trace, not to the ring.

// maxSpansPerEntry bounds a single captured trace: a 15k-item job trace
// must not swallow the whole byte budget. The earliest spans (by start
// offset) are kept; TruncatedSpans counts the remainder.
const maxSpansPerEntry = 512

// RecorderConfig sizes a Recorder. Zero fields take defaults.
type RecorderConfig struct {
	MaxEntries int           // ring capacity in entries (default 256)
	MaxBytes   int           // ring capacity in estimated bytes (default 1 MiB)
	Slow       time.Duration // root-span duration that pins an entry (default 1s)
	MaxPinned  int           // pinned-list capacity (default 32)
}

// FlightEntry is one recorded item: a completed trace (Kind "trace",
// Spans populated) or a structured event (Kind "event", Attrs
// populated). Seq is a monotone capture counter, so consumers can
// detect eviction gaps.
type FlightEntry struct {
	Seq            uint64       `json:"seq"`
	Time           time.Time    `json:"time"`
	Kind           string       `json:"kind"`
	RequestID      string       `json:"request_id"`
	Name           string       `json:"name"`
	DurNS          int64        `json:"dur_ns"`
	Pinned         bool         `json:"pinned,omitempty"`
	Spans          []SpanExport `json:"spans,omitempty"`
	TruncatedSpans int          `json:"truncated_spans,omitempty"`
	Attrs          []Attr       `json:"attrs,omitempty"`

	bytes int
}

// FlightFilter selects entries for Snapshot. Zero value matches all.
type FlightFilter struct {
	RequestID string        // exact match on RequestID
	Name      string        // exact match on Name (root span or event name)
	MinDur    time.Duration // minimum DurNS
	Limit     int           // most recent N after filtering (0 = all)
}

// FlightDump is the JSON shape of GET /debug/flight.
type FlightDump struct {
	Entries    []FlightEntry `json:"entries"`
	Pinned     []FlightEntry `json:"pinned"`
	Dropped    uint64        `json:"dropped"`
	MaxEntries int           `json:"max_entries"`
	MaxBytes   int           `json:"max_bytes"`
	SlowNS     int64         `json:"slow_ns"`
}

// Recorder is the flight recorder. Construct with NewRecorder; nil is
// the valid disabled value.
type Recorder struct {
	maxEntries int
	maxBytes   int
	slow       time.Duration
	maxPinned  int

	mu        sync.Mutex
	seq       uint64
	ring      []FlightEntry // FIFO, oldest first
	ringBytes int
	pinned    []FlightEntry // FIFO, oldest first
	dropped   uint64        // evicted from either list
}

// NewRecorder builds an enabled recorder. Defaults: 256 entries, 1 MiB,
// 1s slow threshold, 32 pinned.
func NewRecorder(cfg RecorderConfig) *Recorder {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = 256
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = 1 << 20
	}
	if cfg.Slow <= 0 {
		cfg.Slow = time.Second
	}
	if cfg.MaxPinned <= 0 {
		cfg.MaxPinned = 32
	}
	return &Recorder{
		maxEntries: cfg.MaxEntries,
		maxBytes:   cfg.MaxBytes,
		slow:       cfg.Slow,
		maxPinned:  cfg.MaxPinned,
	}
}

// estimate approximates the JSON-encoded size of an entry. It only has
// to be consistent and roughly proportional — the byte cap is a memory
// bound, not an accounting ledger.
func estimate(e *FlightEntry) int {
	n := 96 + len(e.RequestID) + len(e.Name) + 32*len(e.Attrs)
	for i := range e.Spans {
		s := &e.Spans[i]
		n += 80 + len(s.Name) + 32*len(s.Attrs)
		for j := range s.Events {
			n += 48 + len(s.Events[j].Name) + 32*len(s.Events[j].Attrs)
		}
	}
	return n
}

// Capture records a completed trace. The entry's Name and DurNS come
// from its root span — a served request's route layer ("translate",
// "batch", "verify") or a job's "job" span — or, with no root ended,
// from the first span; entries whose root reaches the slow threshold are
// pinned past ring eviction. Nil-safe on both the recorder and the trace.
func (r *Recorder) Capture(tr *Trace) {
	if r == nil || tr == nil {
		return
	}
	ex := tr.Export()
	if len(ex.Spans) == 0 {
		return
	}
	root := ex.Spans[0]
	for _, s := range ex.Spans {
		if s.Parent == 0 {
			root = s
			break
		}
	}
	name, dur := root.Name, root.DurNS
	e := FlightEntry{
		Time:      time.Now(),
		Kind:      "trace",
		RequestID: ex.RequestID,
		Name:      name,
		DurNS:     dur,
		Spans:     ex.Spans,
	}
	if len(e.Spans) > maxSpansPerEntry {
		e.TruncatedSpans = len(e.Spans) - maxSpansPerEntry
		e.Spans = e.Spans[:maxSpansPerEntry:maxSpansPerEntry]
	}
	r.add(e, time.Duration(dur) >= r.slow)
}

// Event records a structured point event (job submitted, item
// quarantined, ...) outside any trace. Nil-safe.
func (r *Recorder) Event(requestID, name string, attrs ...Attr) {
	if r == nil {
		return
	}
	r.add(FlightEntry{
		Time:      time.Now(),
		Kind:      "event",
		RequestID: requestID,
		Name:      name,
		Attrs:     attrs,
	}, false)
}

func (r *Recorder) add(e FlightEntry, pin bool) {
	e.bytes = estimate(&e)
	e.Pinned = pin
	r.mu.Lock()
	r.seq++
	e.Seq = r.seq
	if pin {
		if len(r.pinned) >= r.maxPinned {
			drop := len(r.pinned) - r.maxPinned + 1
			r.dropped += uint64(drop)
			r.pinned = append(r.pinned[:0], r.pinned[drop:]...)
		}
		r.pinned = append(r.pinned, e)
		r.mu.Unlock()
		return
	}
	r.ring = append(r.ring, e)
	r.ringBytes += e.bytes
	for len(r.ring) > 1 && (len(r.ring) > r.maxEntries || r.ringBytes > r.maxBytes) {
		r.ringBytes -= r.ring[0].bytes
		r.ring = r.ring[1:]
		r.dropped++
	}
	// A lone over-budget entry stays: an empty recorder answers nothing.
	r.mu.Unlock()
}

func match(e *FlightEntry, f *FlightFilter) bool {
	if f.RequestID != "" && e.RequestID != f.RequestID {
		return false
	}
	if f.Name != "" && e.Name != f.Name {
		return false
	}
	if f.MinDur > 0 && e.DurNS < f.MinDur.Nanoseconds() {
		return false
	}
	return true
}

func filterCopy(src []FlightEntry, f *FlightFilter) []FlightEntry {
	out := make([]FlightEntry, 0, len(src))
	for i := range src {
		if match(&src[i], f) {
			out = append(out, src[i])
		}
	}
	if f.Limit > 0 && len(out) > f.Limit {
		out = out[len(out)-f.Limit:]
	}
	return out
}

// Snapshot copies the current contents, oldest first, applying the
// filter to both lists. Nil-safe: a nil recorder returns an empty dump.
func (r *Recorder) Snapshot(f FlightFilter) FlightDump {
	if r == nil {
		return FlightDump{Entries: []FlightEntry{}, Pinned: []FlightEntry{}}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return FlightDump{
		Entries:    filterCopy(r.ring, &f),
		Pinned:     filterCopy(r.pinned, &f),
		Dropped:    r.dropped,
		MaxEntries: r.maxEntries,
		MaxBytes:   r.maxBytes,
		SlowNS:     r.slow.Nanoseconds(),
	}
}

// Len reports (ring, pinned) entry counts, for tests and health output.
func (r *Recorder) Len() (ring, pinned int) {
	if r == nil {
		return 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring), len(r.pinned)
}
