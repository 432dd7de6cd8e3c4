package batch

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"tdmagic/internal/core"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/sei"
	"tdmagic/internal/store"
)

// Tier names the level of the artifact path that answered: a translation
// made now, the in-memory LRU, or the persistent store.
type Tier int

const (
	TierMiss Tier = iota
	TierLRU
	TierStore
)

// Lookup misses. Both mean "translate the picture"; a corrupt artifact is
// also counted by the store and overwritten by the next translation.
var (
	errNotStored = errors.New("batch: artifact not stored")
	ErrCorrupt   = errors.New("batch: stored artifact corrupt")
)

// Resolved is one picture's artifact as a Resolver found or made it.
type Resolved struct {
	Input store.Hash // store.HashImage of the picture
	Tier  Tier
	// Body is the artifact's JSON, verbatim from the store on a store
	// hit. The LRU shares it: never modify or append to it.
	Body []byte
	// Artifact is Body decoded; nil on an LRU hit, which keeps only the
	// bytes.
	Artifact *Artifact
	// Refused reports that the artifact records an input refusal.
	Refused bool
	// Stored reports that the artifact is known to be in the store: a
	// store hit, a translation whose Put succeeded, or an LRU entry made
	// by either.
	Stored bool
	// Rep is the translation's full report; only Translate sets it.
	Rep *core.Report
}

// Resolver is the one artifact path: encoded bytes → raw index → alias
// index, then input hash → LRU → store → guarded translate → persist.
// tdserve's translate, batch and verify, the batch executor and the job
// service all resolve pictures through it, so a picture gets one answer
// whichever tier holds it. A caller that gates translation (tdserve's
// admission queue) calls LookupRaw, Lookup and Translate apart. It is
// safe for concurrent use and holds no lock across disk I/O or
// translation.
type Resolver struct {
	pipe          *core.Pipeline
	st            *store.Store
	cfg           store.Hash
	timeout       time.Duration
	persistReport bool
	lru           lru[Resolved]   // input hash → artifact
	raw           lru[store.Hash] // hash of encoded bytes → input hash
}

// NewResolver returns a resolver that translates with pipe under
// opts.Timeout and persists to opts.Store (when set) under opts.Config,
// with detections when opts.PersistReport is set. lruSize > 0 puts an
// in-memory LRU of that many artifacts in front of the store, and a raw
// index of as many encoded pictures in front of the store's alias index.
func NewResolver(pipe *core.Pipeline, opts Options, lruSize int) *Resolver {
	return &Resolver{pipe: pipe, st: opts.Store, cfg: opts.Config, timeout: opts.Timeout,
		persistReport: opts.PersistReport, lru: lru[Resolved]{cap: lruSize}, raw: lru[store.Hash]{cap: lruSize}}
}

// LRULen returns the number of artifacts in the LRU.
func (r *Resolver) LRULen() int { return r.lru.len() }

// LookupRaw answers a picture by raw, the hash of its encoded bytes,
// before any decode: the raw index, else the store's alias index, maps
// raw to the input hash that Lookup then answers, and an alias hit is
// promoted into the raw index. A miss means decode, hash the pixels and
// Lookup; Learn then records the bytes.
func (r *Resolver) LookupRaw(raw store.Hash) (Resolved, error) {
	input, ok := r.raw.get(raw)
	if !ok && r.st != nil {
		if input, ok = r.st.GetAlias(raw); ok {
			r.raw.put(raw, input)
		}
	}
	if !ok {
		return Resolved{}, errNotStored
	}
	return r.Lookup(input)
}

// Learn records that the encoded bytes hashing to raw decode to the
// picture res resolved: in the raw index always, and in the store's
// alias index only once res's artifact is stored, so the index never
// points at a missing artifact.
func (r *Resolver) Learn(raw store.Hash, res Resolved) {
	r.raw.put(raw, res.Input)
	if res.Stored && r.st != nil {
		_ = r.st.PutAlias(raw, res.Input)
	}
}

// Lookup answers input from the LRU, then the store, without translating.
// An LRU hit decodes nothing; a store hit is one Get and one decode, and
// its bytes are promoted into the LRU. A stored artifact lacking the
// detections a PersistReport resolver needs is a miss.
func (r *Resolver) Lookup(input store.Hash) (Resolved, error) {
	if res, ok := r.lru.get(input); ok {
		res.Tier = TierLRU
		return res, nil
	}
	if r.st == nil {
		return Resolved{}, errNotStored
	}
	data, ok := r.st.Get(r.cfg, input)
	if !ok {
		return Resolved{}, errNotStored
	}
	a := new(Artifact)
	if json.Unmarshal(data, a) != nil || a.SPO == nil {
		r.st.NoteCorrupt()
		return Resolved{}, ErrCorrupt
	}
	if r.persistReport && a.Report == nil {
		return Resolved{}, errNotStored
	}
	res := Resolved{Input: input, Tier: TierStore, Body: data, Artifact: a,
		Refused: core.InputRefused(&core.Report{Diags: a.Diags}), Stored: true}
	r.keep(res)
	return res, nil
}

// Translate runs the one-item guarded translation of img (deadline,
// cooperative cancellation, panic isolation), whose content hash is
// input. On success the artifact is marshalled once, persisted and put
// in the LRU; a failed Put leaves Stored false but is no error, so a full
// disk degrades to recomputation. A failure still returns the report.
func (r *Resolver) Translate(ctx context.Context, input store.Hash, img *imgproc.Gray) (Resolved, error) {
	out := r.pipe.TranslateAllCtx(ctx, []*imgproc.Gray{img}, core.BatchOptions{Workers: 1, Timeout: r.timeout})[0]
	res := Resolved{Input: input, Rep: out.Rep}
	if out.Err != nil {
		return res, out.Err
	}
	a := &Artifact{SPO: out.SPO, Spec: out.SPO.SpecText()}
	if out.Rep != nil {
		a.Diags = out.Rep.Diags
		if r.persistReport {
			a.Report = &ReportArtifact{Edges: out.Rep.Edges, Texts: out.Rep.Texts}
			if s := out.Rep.SEI; s != nil {
				a.Report.VLines, a.Report.HLines, a.Report.Arrows = s.VLines, s.HLines, s.Arrows
			}
		}
	}
	body, err := json.Marshal(a)
	if err != nil {
		return res, fmt.Errorf("batch: encode artifact: %w", err)
	}
	res.Body, res.Artifact, res.Refused = body, a, core.InputRefused(out.Rep)
	if r.st != nil {
		res.Stored = r.st.Put(r.cfg, input, body) == nil
	}
	r.keep(res)
	return res, nil
}

// keep puts the bytes, refusal and persistence of res in the LRU.
func (r *Resolver) keep(res Resolved) {
	r.lru.put(res.Input, Resolved{Input: res.Input, Body: res.Body, Refused: res.Refused, Stored: res.Stored})
}

// report rebuilds the report a stored artifact stands for: diagnostics
// always, detections when they were persisted.
func (a *Artifact) report() *core.Report {
	rep := &core.Report{Diags: a.Diags}
	if ra := a.Report; ra != nil {
		rep.Edges, rep.Texts = ra.Edges, ra.Texts
		rep.SEI = &sei.Output{SPO: a.SPO, VLines: ra.VLines, HLines: ra.HLines, Arrows: ra.Arrows}
	}
	return rep
}

// lru is a fixed-capacity least-recently-used map from a content hash
// to a value. The artifact LRU is keyed by input hash — the store's key,
// so two PNG encodings of one picture share an entry. Entries are
// immutable once inserted, so a hit is byte-identical to the first
// answer.
type lru[V any] struct {
	mu    sync.Mutex
	cap   int       // <= 0 holds nothing
	order list.List // front = most recent; values are *lruEntry[V]
	items map[store.Hash]*list.Element
}

type lruEntry[V any] struct {
	key store.Hash
	val V
}

// get returns the value for key, marking it most recently used.
func (c *lru[V]) get(key store.Hash) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// put stores val under key, evicting the least recently used entry when
// full.
func (c *lru[V]) put(key store.Hash, val V) {
	if c.cap <= 0 {
		return
	}
	e := &lruEntry[V]{key: key, val: val}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.items == nil {
		c.items = make(map[store.Hash]*list.Element)
	}
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		el.Value = e
		return
	}
	for c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry[V]).key)
	}
	c.items[key] = c.order.PushFront(e)
}

func (c *lru[V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
