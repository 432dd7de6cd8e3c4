// Package batch is the streaming corpus-scale translation engine: a
// bounded source → decode → translate → persist pipeline with
// backpressure, sharded over workers, with deterministic output order and
// an optional persistent content-addressed result cache (internal/store).
//
// The executor never materialises the corpus: the source is pulled one
// item at a time, at most O(workers) items are decoded or in flight at
// once (an admission window throttles the dispatcher until earlier
// results have been emitted), and results stream to the caller in input
// order regardless of which worker finished first — the same
// ordered-reduction discipline as internal/parallel, extended to streams
// of unknown length. Resident memory is therefore bounded by the worker
// count, not the corpus size.
//
// With a store attached, each item is resolved content-addressed through
// a Resolver, the artifact path tdserve and the job service share:
// file-backed items first try its raw tier (the store's alias index, hash
// of the encoded bytes → input hash), skipping even the PNG decode on
// warm re-runs; otherwise the decoded pixels are hashed (store.HashImage) and
// the artifact looked up under (config hash × input hash). A hit skips
// translation entirely and replays the stored SPO, SpecText and
// diagnostics byte-identically; a miss translates and persists the
// artifact atomically, so an interrupted run resumes with only the
// missing items.
package batch

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"tdmagic/internal/core"
	"tdmagic/internal/dataset"
	"tdmagic/internal/diag"
	"tdmagic/internal/geom"
	"tdmagic/internal/imgproc"
	"tdmagic/internal/ocr"
	"tdmagic/internal/parallel"
	"tdmagic/internal/sed"
	"tdmagic/internal/spo"
	"tdmagic/internal/store"
)

// Artifact is the persisted form of one translation result — and, field
// for field, the JSON payload tdserve returns from /v1/translate (the
// serve package aliases its TranslateResponse to it), so a store shared
// between the batch engine and a serving fleet holds one artifact format.
type Artifact struct {
	// SPO is the extracted specification graph.
	SPO *spo.SPO `json:"spo"`
	// Spec is the human-readable specification text (SpecText), stored so
	// a cache hit replays it byte-identically without re-deriving it.
	Spec string `json:"spec"`
	// Diags lists the degradations the pipeline worked around.
	Diags []diag.Diagnostic `json:"diags,omitempty"`
	// Report carries the perception-level detections when the producer
	// ran with Options.PersistReport (the evaluation harness needs them
	// for Table II/III scoring); plain translation consumers leave it
	// out.
	Report *ReportArtifact `json:"report,omitempty"`
}

// ReportArtifact is the persisted subset of core.Report that scoring
// consumers need: detections and classified annotation structure, but not
// the packed binary image or contours (which dwarf everything else).
type ReportArtifact struct {
	Edges  []sed.Detection `json:"edges,omitempty"`
	Texts  []ocr.Result    `json:"texts,omitempty"`
	VLines []geom.VSeg     `json:"vlines,omitempty"`
	HLines []geom.HSeg     `json:"hlines,omitempty"`
	Arrows []dataset.Arrow `json:"arrows,omitempty"`
}

// Result is one item's outcome, delivered to the emit callback in input
// order.
type Result struct {
	Index int
	Name  string
	// SPO and Spec are the translation output (Spec == SPO.SpecText(),
	// byte-identical whether computed or replayed from the store).
	SPO  *spo.SPO
	Spec string
	// Rep is the translation report. On a cache hit it is reconstructed
	// from the artifact: diagnostics always, detections only when the
	// artifact was persisted with a report.
	Rep *core.Report
	// Err is the item's failure (source, decode, deadline, panic). Failed
	// items are never persisted, so a re-run retries them.
	Err error
	// Cached reports that translation was skipped entirely.
	Cached bool
	// Stored reports that the item's artifact is known to be in the
	// store: a store hit, or a translation whose Put succeeded.
	Stored bool
	// Input is the canonical content hash of the picture (zero when the
	// item failed before hashing).
	Input store.Hash
}

// Stats summarises a run.
type Stats struct {
	// Items counts results emitted; Hits/Misses split them by cache
	// outcome (errors count as neither); Errors counts failed items.
	Items, Hits, Misses, Errors int
}

// Options configures a run.
type Options struct {
	// Workers is the translation fan-out (<= 0 means GOMAXPROCS).
	Workers int
	// Timeout bounds each item's translation wall-clock; one pathological
	// picture surfaces as its own Result.Err instead of stalling the run.
	Timeout time.Duration
	// Store, when non-nil, is the persistent content-addressed result
	// cache; Config must then carry the pipeline's ConfigHash.
	Store  *store.Store
	Config store.Hash
	// PersistReport stores perception detections in each artifact (and
	// refuses to hit on artifacts that lack them), for scoring consumers.
	PersistReport bool
}

// FaultHook, when non-nil, runs at the start of every item processed by
// Process; a non-nil return fails the item as if preparation had failed.
// It is a build-tag-free fault-injection seam for the robustness tests
// (decode errors, flaky sources) and must only be set before any executor
// is running.
var FaultHook func(it Item) error

// Run pulls items from src, processes them on a bounded worker pool and
// calls emit once per item in input order. It returns when the source is
// drained, the context is cancelled, the source fails, or emit returns an
// error; per-item failures are reported through Result.Err and do not
// stop the run. The emitted result sequence is identical for any worker
// count.
func Run(ctx context.Context, pipe *core.Pipeline, src Source, opts Options, emit func(Result) error) (Stats, error) {
	workers := parallel.Resolve(opts.Workers)
	var stats Stats
	if opts.Store != nil && opts.Config.IsZero() {
		return stats, errors.New("batch: Options.Store set without Options.Config")
	}

	rctx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan Item, workers)
	results := make(chan Result, workers)
	// The admission window caps items dispatched but not yet emitted, so
	// the reorder buffer — and with it resident memory — stays bounded by
	// the worker count even when item 0 is the slowest of the corpus.
	window := make(chan struct{}, 2*workers)

	srcErr := make(chan error, 1)
	go func() {
		defer close(jobs)
		for i := 0; ; i++ {
			it, err := src.Next()
			if err == io.EOF {
				srcErr <- nil
				return
			}
			if err != nil {
				srcErr <- err
				return
			}
			it.Index = i
			select {
			case window <- struct{}{}:
			case <-rctx.Done():
				srcErr <- rctx.Err()
				return
			}
			select {
			case jobs <- it:
			case <-rctx.Done():
				srcErr <- rctx.Err()
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range jobs {
				r := Process(rctx, pipe, it, opts)
				select {
				case results <- r:
				case <-rctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	pending := make(map[int]Result, 2*workers)
	next := 0
	var emitErr error
	for r := range results {
		pending[r.Index] = r
		for {
			q, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			<-window
			if emitErr != nil {
				continue
			}
			stats.Items++
			switch {
			case q.Err != nil:
				stats.Errors++
			case q.Cached:
				stats.Hits++
			default:
				stats.Misses++
			}
			if emit != nil {
				if err := emit(q); err != nil {
					emitErr = err
					cancel()
				}
			}
		}
	}
	err := <-srcErr
	switch {
	case emitErr != nil:
		return stats, emitErr
	case err != nil && !errors.Is(err, context.Canceled):
		return stats, err
	case ctx.Err() != nil:
		return stats, ctx.Err()
	}
	return stats, nil
}

// Process runs one item through the full per-item path — resolve the
// picture, then hand it to a Resolver (store, translate on a miss,
// persist) — and returns its Result. Run calls it from the worker pool;
// the jobs service calls it directly for each claimed attempt, so both
// execution surfaces share one store discipline (alias index, hit
// validation, atomic persist, errors never stored).
func Process(ctx context.Context, pipe *core.Pipeline, it Item, opts Options) Result {
	r := Result{Index: it.Index, Name: it.Name}
	if it.Err != nil {
		r.Err = it.Err
		return r
	}
	fail := func(err error) Result {
		r.Err = fmt.Errorf("batch: %s: %w", it.Name, err)
		return r
	}
	if FaultHook != nil {
		if err := FaultHook(it); err != nil {
			return fail(err)
		}
	}

	rs := NewResolver(pipe, opts, 0)
	img := it.Image
	var rawKey store.Hash
	if img == nil && it.Load != nil {
		loaded, err := it.Load()
		if err != nil {
			return fail(err)
		}
		img = loaded
	}
	if img == nil && it.Open != nil {
		rc, err := it.Open()
		if err != nil {
			return fail(err)
		}
		raw, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return fail(err)
		}
		// Warm fast path: the alias index maps the encoded bytes straight
		// to the input hash, so an unchanged file resolves to its
		// artifact without being decoded at all.
		rawKey = store.HashBytes(raw)
		if res, err := rs.LookupRaw(rawKey); err == nil {
			return r.resolved(res, nil)
		}
		if img, err = imgproc.DecodePNG(bytes.NewReader(raw)); err != nil {
			return fail(err)
		}
	}
	if img == nil {
		return fail(errors.New("item carries no picture"))
	}

	input := store.HashImage(img)
	res, err := rs.Lookup(input)
	if err != nil {
		res, err = rs.Translate(ctx, input, img)
	}
	if err == nil && !rawKey.IsZero() {
		rs.Learn(rawKey, res)
	}
	return r.resolved(res, err)
}

// resolved fills r from a resolution: the artifact's SPO and spec text,
// and the report — the translation's own on a miss, the one the artifact
// stands for on a hit.
func (r Result) resolved(res Resolved, err error) Result {
	r.Input, r.Rep, r.Stored, r.Err = res.Input, res.Rep, res.Stored, err
	if err != nil {
		return r
	}
	r.SPO, r.Spec = res.Artifact.SPO, res.Artifact.Spec
	if res.Tier != TierMiss {
		r.Cached = true
		r.Rep = res.Artifact.report()
	}
	return r
}
