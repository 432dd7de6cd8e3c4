package jobs

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
	"unicode/utf8"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/diag"
	"tdmagic/internal/metrics"
	"tdmagic/internal/obs"
	"tdmagic/internal/parallel"
	"tdmagic/internal/store"
)

// Config tunes the job service. The zero value of every field selects a
// sensible default.
type Config struct {
	// Workers bounds concurrently executing item translations across all
	// jobs (<= 0 means GOMAXPROCS).
	Workers int
	// MaxAttempts quarantines an item after this many failed attempts
	// (default 3).
	MaxAttempts int
	// BackoffBase and BackoffCap shape the retry schedule: delay =
	// min(BackoffCap, BackoffBase<<(attempt-1)) plus deterministic jitter
	// (defaults 250ms / 15s).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// Timeout bounds each item attempt's wall clock (default 30s).
	Timeout time.Duration
	// Throttle pauses before each attempt — a rate limit for shared
	// replicas, and the knob the crash tests use to widen the kill
	// window (default 0).
	Throttle time.Duration
	// MaxItems caps a single job's item count (default 16384).
	MaxItems int
	// Flight, when non-nil, receives job lifecycle events and traces
	// every job: a "job" root span with one "job.item" child per attempt
	// (the pipeline's layers nested under it), carrying backoff sleeps, retries
	// and quarantines as span events. The trace is captured when the
	// job's scheduler exits (truncated on capture: a 15k-item job's trace
	// is real memory), keyed by the job ID, so
	// GET /debug/flight?request_id=<job> explains a job after the fact.
	Flight *obs.Recorder
	// Registry receives the tdjobs_ metrics; nil creates a private one.
	Registry *metrics.Registry
	// Logger receives job lifecycle events; nil disables logging.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 250 * time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 15 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.MaxItems <= 0 {
		c.MaxItems = 16384
	}
	if c.Registry == nil {
		c.Registry = metrics.NewRegistry()
	}
}

// Exported service errors.
var (
	// ErrNotFound reports an unknown job ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrRunning reports a results request against a non-terminal job.
	ErrRunning = errors.New("jobs: job still running")
	// ErrClosed reports a submission against a draining service.
	ErrClosed = errors.New("jobs: service closed")
)

// serviceMetrics bundles the tdjobs_ series.
type serviceMetrics struct {
	submitted   *metrics.Counter
	itemsDone   *metrics.Counter
	quarantined *metrics.Counter
	retries     *metrics.Counter
	reclaims    *metrics.Counter
	hits        *metrics.Counter
	misses      *metrics.Counter
	journalErrs *metrics.Counter
	jobsActive  *metrics.Gauge
	inflight    *metrics.Gauge
	itemSeconds *metrics.Histogram
}

// Service is the durable job engine. Open one over a store-backed
// pipeline, Submit jobs, and restart the process at will: unfinished
// jobs resume from their journals with only incomplete items re-claimed.
// All methods are safe for concurrent use.
type Service struct {
	root    string
	pipe    *core.Pipeline
	st      *store.Store
	cfg     Config
	cfgHash store.Hash

	sem chan struct{}

	mu    sync.Mutex
	jobs  map[string]*job
	drain chan struct{} // closed once Close begins the drain
	wg    sync.WaitGroup

	m serviceMetrics
}

// job is one tracked job: the journaled record plus the in-memory
// scheduling state (in-flight count, wake plumbing).
type job struct {
	svc *Service
	id  string
	dir string

	mu       sync.Mutex
	rec      Record
	inflight int
	dirty    bool // last journal write failed; retry at next checkpoint

	ctx      context.Context
	cancel   context.CancelFunc
	trace    *obs.Trace
	span     *obs.Span     // "job" root span; nil unless Config.Flight
	resumed  bool          // job was recovered from a journal after a restart
	hub      eventHub      // live lifecycle event fan-out
	wake     chan struct{} // buffered(1) scheduler kick
	terminal chan struct{} // closed once rec.State is terminal
	termOnce sync.Once
}

// Open loads (creating if necessary) a job service rooted at dir. Jobs
// the journal shows queued or running are resumed immediately: their
// running items — claimed by the previous process, which died holding
// them — are reclaimed to pending and the scheduler restarts. The store
// is mandatory: it is what makes resume incremental.
func Open(dir string, pipe *core.Pipeline, st *store.Store, cfg Config) (*Service, error) {
	if pipe == nil || st == nil {
		return nil, errors.New("jobs: Open requires a pipeline and a store")
	}
	cfg.applyDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: open %s: %w", dir, err)
	}
	reg := cfg.Registry
	s := &Service{
		root:    dir,
		pipe:    pipe,
		st:      st,
		cfg:     cfg,
		cfgHash: pipe.ConfigHash(),
		sem:     make(chan struct{}, workerCount(cfg.Workers)),
		jobs:    map[string]*job{},
		drain:   make(chan struct{}),
		m: serviceMetrics{
			submitted:   reg.Counter("tdjobs_jobs_total", "jobs submitted (including resumed from disk)"),
			itemsDone:   reg.Counter("tdjobs_items_done_total", "items completed"),
			quarantined: reg.Counter("tdjobs_items_quarantined_total", "items parked after exhausting their attempts"),
			retries:     reg.Counter("tdjobs_retries_total", "items requeued after a failed attempt"),
			reclaims:    reg.Counter("tdjobs_lease_reclaims_total", "running items taken back at restart from the process that died holding them"),
			hits:        reg.Counter("tdjobs_store_hits_total", "items answered from the artifact store"),
			misses:      reg.Counter("tdjobs_store_misses_total", "items translated fresh"),
			journalErrs: reg.Counter("tdjobs_journal_errors_total", "failed journal checkpoints (state kept in memory, retried)"),
			jobsActive:  reg.Gauge("tdjobs_jobs_active", "jobs currently scheduled"),
			inflight:    reg.Gauge("tdjobs_items_inflight", "item attempts currently executing"),
			itemSeconds: reg.Histogram("tdjobs_item_seconds", "wall-clock latency of item attempts (exemplar: job ID)", nil),
		},
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

func workerCount(w int) int { return parallel.Resolve(w) }

// MaxItems reports the per-job item limit, so front ends can reject an
// oversized submission while reading it instead of after buffering it.
func (s *Service) MaxItems() int { return s.cfg.MaxItems }

// recover scans the root for journaled jobs and resumes the live ones.
func (s *Service) recover() error {
	entries, err := os.ReadDir(s.root)
	if err != nil {
		return fmt.Errorf("jobs: scan %s: %w", s.root, err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		dir := filepath.Join(s.root, id)
		clearStaleJournals(dir)
		rec, err := loadRecord(dir)
		if err != nil {
			if !journalExists(dir) {
				// A submit crashed before its first checkpoint: the job
				// was never acknowledged, so its directory is garbage.
				_ = os.RemoveAll(dir)
				continue
			}
			// Both generations corrupt: park the job as failed rather
			// than guessing at its items.
			s.track(&Record{ID: id, Created: time.Now().UnixNano()}, dir).
				park("journal unrecoverable: " + err.Error())
			continue
		}
		rec.ID = id // the directory is authoritative
		j := s.track(rec, dir)
		if rec.State.Terminal() {
			j.closeTerminal()
			j.hub.close()
			continue
		}
		if rec.Config != s.cfgHash.Hex() {
			j.park("pipeline configuration changed since submission")
			continue
		}
		// Claims die with their process: reclaim every running item so the
		// restarted scheduler re-dispatches it. Any whose artifact landed
		// before the crash answers from the store.
		j.resumed = true
		j.span.Bool("resumed", true)
		j.mu.Lock()
		for i := range j.rec.Items {
			if j.rec.Items[i].State == ItemRunning {
				j.rec.Items[i].State = ItemPending
				j.rec.Items[i].NotBefore = 0
				j.rec.Reclaims++
				s.m.reclaims.Inc()
			}
		}
		j.checkpointLocked()
		j.emit(Event{Type: EventResumed})
		j.mu.Unlock()
		s.start(j)
	}
	return nil
}

// journalExists reports whether either journal generation is present.
func journalExists(dir string) bool {
	for _, name := range []string{journalFile, journalPrev} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// track registers a job in the in-memory map.
func (s *Service) track(rec *Record, dir string) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		svc: s, id: rec.ID, dir: dir,
		rec:      *rec,
		ctx:      ctx,
		cancel:   cancel,
		wake:     make(chan struct{}, 1),
		terminal: make(chan struct{}),
	}
	if s.cfg.Flight != nil {
		j.trace = obs.NewTrace(rec.ID)
		j.span = j.trace.Start("job")
		j.span.Int("items", int64(len(rec.Items)))
		j.ctx = obs.ContextWithSpan(j.ctx, j.span)
	} else {
		// Untraced, the job ID still names the job's layers' exemplars.
		j.ctx = obs.ContextWithRequestID(j.ctx, rec.ID)
	}
	s.mu.Lock()
	s.jobs[rec.ID] = j
	s.mu.Unlock()
	return j
}

// start launches a job's scheduler goroutine.
func (s *Service) start(j *job) {
	s.m.jobsActive.Inc()
	s.wg.Add(1)
	go j.run()
}

// ItemSpec is one item of a submission: either a reference to an
// existing picture file (Path) or uploaded bytes (Data), which Submit
// saves into the job's input directory.
type ItemSpec struct {
	Name string
	Path string
	Data io.Reader
}

// Submit journals a new job over the given items and starts it,
// returning the initial snapshot. Names must be unique, safe single path
// components (batch.SafeName), and names and paths valid UTF-8 (the JSON
// journal would rewrite other bytes, and the resumed item would open a
// file that does not exist); uploaded items are persisted under the job
// directory before the job is acknowledged, so an accepted submission
// survives an immediate crash.
func (s *Service) Submit(specs []ItemSpec) (Snapshot, error) {
	return s.SubmitRequest("", specs)
}

// SubmitRequest is Submit carrying the X-Request-ID of the HTTP
// submission. The ID is journaled with the job record and surfaces in
// snapshots, logs and flight-recorder events, so a job is correlatable
// with the access-log line that created it. It never enters the
// results stream: item results stay byte-identical across re-runs.
func (s *Service) SubmitRequest(requestID string, specs []ItemSpec) (Snapshot, error) {
	if s.draining() {
		return Snapshot{}, ErrClosed
	}
	if len(specs) == 0 {
		return Snapshot{}, errors.New("jobs: empty submission")
	}
	if len(specs) > s.cfg.MaxItems {
		return Snapshot{}, fmt.Errorf("jobs: %d items exceed the %d-item limit", len(specs), s.cfg.MaxItems)
	}
	seen := make(map[string]bool, len(specs))
	for _, sp := range specs {
		if err := batch.SafeName(sp.Name); err != nil {
			return Snapshot{}, err
		}
		if !utf8.ValidString(sp.Name) || !utf8.ValidString(sp.Path) {
			return Snapshot{}, fmt.Errorf("jobs: item %q: name and path must be valid UTF-8", sp.Name)
		}
		if seen[sp.Name] {
			return Snapshot{}, fmt.Errorf("jobs: duplicate item name %q", sp.Name)
		}
		seen[sp.Name] = true
	}

	id := obs.NewRequestID()
	dir := filepath.Join(s.root, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Snapshot{}, fmt.Errorf("jobs: %w", err)
	}
	now := time.Now().UnixNano()
	rec := Record{
		ID: id, Config: s.cfgHash.Hex(), State: StateQueued,
		Submitter: requestID,
		Created:   now, Updated: now,
		Items: make([]ItemRecord, len(specs)),
	}
	for i, sp := range specs {
		path := sp.Path
		if sp.Data != nil {
			path = filepath.Join(dir, "input", sp.Name+".png")
			if err := saveUpload(path, sp.Data); err != nil {
				_ = os.RemoveAll(dir)
				return Snapshot{}, err
			}
		}
		rec.Items[i] = ItemRecord{Name: sp.Name, Path: path, State: ItemPending}
	}
	if err := writeRecord(dir, &rec); err != nil {
		_ = os.RemoveAll(dir)
		return Snapshot{}, err
	}
	j := s.track(&rec, dir)
	j.mu.Lock()
	j.emit(Event{Type: EventSubmitted})
	j.mu.Unlock()
	s.start(j)
	return j.snapshot(false), nil
}

// saveUpload writes one uploaded picture into the job's input directory.
func saveUpload(path string, r io.Reader) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	_, werr := io.Copy(f, r)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("jobs: save upload: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("jobs: save upload: %w", cerr)
	}
	return nil
}

// Get returns a snapshot of one job; withItems includes per-item status.
func (s *Service) Get(id string, withItems bool) (Snapshot, bool) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(withItems), true
}

// List returns a snapshot of every tracked job, oldest first.
func (s *Service) List() []Snapshot {
	s.mu.Lock()
	js := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		js = append(js, j)
	}
	s.mu.Unlock()
	out := make([]Snapshot, len(js))
	for i, j := range js {
		out[i] = j.snapshot(false)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Created != out[b].Created {
			return out[a].Created < out[b].Created
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns its final snapshot.
func (s *Service) Wait(ctx context.Context, id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	select {
	case <-j.terminal:
		return j.snapshot(false), nil
	case <-ctx.Done():
		return j.snapshot(false), ctx.Err()
	}
}

// Cancel stops a job: in-flight attempts are cancelled cooperatively and
// returned to pending without an attempt penalty, pending items stay
// pending, and the job parks in StateCancelled. Cancelling a terminal
// job is a no-op. The final snapshot is returned.
func (s *Service) Cancel(id string) (Snapshot, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return Snapshot{}, ErrNotFound
	}
	j.mu.Lock()
	if !j.rec.State.Terminal() {
		j.setTerminalLocked(StateCancelled, "")
	}
	j.mu.Unlock()
	j.cancel()
	j.kick()
	return j.snapshot(false), nil
}

// Results streams the terminal job's per-item results to fn in
// submission order: store artifacts for done items, quarantine
// diagnostics for poisoned ones. It fails with ErrRunning while the job
// is live.
func (s *Service) Results(id string, fn func(ItemResult) error) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return ErrNotFound
	}
	j.mu.Lock()
	if !j.rec.State.Terminal() {
		j.mu.Unlock()
		return ErrRunning
	}
	state := j.rec.State
	items := append([]ItemRecord(nil), j.rec.Items...)
	j.mu.Unlock()

	rs := batch.NewResolver(s.pipe, batch.Options{Store: s.st, Config: s.cfgHash}, 0)
	for i := range items {
		it := &items[i]
		r := ItemResult{Index: i, Name: it.Name}
		switch it.State {
		case ItemDone:
			input, err := store.ParseHex(it.Input)
			if err != nil {
				r.Error = "artifact reference corrupt"
				break
			}
			res, err := rs.Lookup(input)
			switch {
			case errors.Is(err, batch.ErrCorrupt):
				r.Error = "artifact corrupt"
			case err != nil:
				r.Error = "artifact missing from store"
			default:
				r.Spec, r.SPO, r.Diags = res.Artifact.Spec, res.Artifact.SPO, res.Artifact.Diags
			}
		case ItemQuarantined:
			r.Error = it.Error
			r.Diags = it.Diags
		default:
			r.Error = fmt.Sprintf("not executed (job %s)", state)
		}
		if err := fn(r); err != nil {
			return err
		}
	}
	return nil
}

// draining reports whether the service drain has begun.
func (s *Service) draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// Close drains the service: no new submissions, no new item dispatches,
// in-flight attempts run to completion (bounded by the per-item
// timeout), and every live job checkpoints its journal so a reopened
// service resumes exactly where this one stopped. ctx bounds the wait.
func (s *Service) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining() {
		close(s.drain)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain: %w", ctx.Err())
	}
}

// ---------------------------------------------------------------------------
// job scheduling

// snapshot builds a point-in-time view.
func (j *job) snapshot(withItems bool) Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked(withItems)
}

// snapshotLocked is snapshot for callers already holding j.mu.
func (j *job) snapshotLocked(withItems bool) Snapshot {
	sn := Snapshot{
		ID: j.rec.ID, State: j.rec.State, Error: j.rec.Error,
		Submitter: j.rec.Submitter,
		Created:   j.rec.Created, Updated: j.rec.Updated,
		Stats: j.rec.stats(),
	}
	if withItems {
		sn.Items = make([]ItemStatus, len(j.rec.Items))
		for i := range j.rec.Items {
			it := &j.rec.Items[i]
			sn.Items[i] = ItemStatus{
				Name: it.Name, State: it.State, Attempts: it.Attempts,
				Error: it.Error, Diags: it.Diags,
			}
		}
	}
	return sn
}

// kick wakes the scheduler without blocking.
func (j *job) kick() {
	select {
	case j.wake <- struct{}{}:
	default:
	}
}

// closeTerminal closes the terminal channel exactly once.
func (j *job) closeTerminal() { j.termOnce.Do(func() { close(j.terminal) }) }

// setTerminalLocked parks the job in a terminal state and checkpoints.
func (j *job) setTerminalLocked(st State, msg string) {
	j.rec.State = st
	j.rec.Error = msg
	j.checkpointLocked()
	j.emit(Event{Type: EventTerminal, Error: msg})
	j.closeTerminal()
}

// park fails a job that cannot run at all; it never gets a scheduler.
func (j *job) park(msg string) {
	j.mu.Lock()
	j.setTerminalLocked(StateFailed, msg)
	j.mu.Unlock()
	j.hub.close()
}

// emit is the one writer of lifecycle telemetry. Called under j.mu at
// every transition, it publishes ev to the live stream and derives from
// it the flight event, the job span's events, the log line and the
// tdjobs_ counters. Only submitted, resumed and terminal events carry
// Stats, so only they pay for the per-item scan.
func (j *job) emit(ev Event) {
	s := j.svc
	ev.Job = j.id
	switch ev.Type {
	case EventSubmitted, EventResumed, EventTerminal:
		st := j.rec.stats()
		ev.Stats = &st
		fallthrough
	case EventCheckpoint:
		ev.State = j.rec.State
	}
	j.hub.publish(ev)

	index, attempt := obs.I("index", int64(ev.Index)), obs.I("attempt", int64(ev.Attempt))
	msg := ""
	switch ev.Type {
	case EventSubmitted, EventResumed:
		s.m.submitted.Inc()
		s.cfg.Flight.Event(j.id, "job_"+string(ev.Type), obs.I("items", int64(ev.Stats.Total)))
		msg = "job " + string(ev.Type)
	case EventRetried:
		s.m.retries.Inc()
		// One event for the retry decision, one for the backoff gate it
		// opens — the trace shows both the failure and the sleep.
		j.span.Event("retry", index, attempt)
		j.span.Event("backoff", index, obs.I("delay_ns", ev.DelayNS))
	case EventQuarantined:
		s.m.quarantined.Inc()
		j.span.Event("quarantine", index, attempt)
		s.cfg.Flight.Event(j.id, "item_quarantined", index, attempt)
		if l := s.cfg.Logger; l != nil {
			l.Warn("item quarantined", slog.String("job", j.id),
				slog.String("item", ev.Item), slog.Int("attempts", ev.Attempt),
				slog.String("error", ev.Error))
		}
	case EventDone:
		if *ev.Cached {
			s.m.hits.Inc()
		} else {
			s.m.misses.Inc()
		}
		s.m.itemsDone.Inc()
	case EventTerminal:
		s.cfg.Flight.Event(j.id, "job_"+string(ev.State),
			obs.I("done", int64(ev.Stats.Done)), obs.I("quarantined", int64(ev.Stats.Quarantined)))
		msg = "job finished"
		if ev.State == StateCancelled {
			msg = "job cancelled"
		}
	}
	if l := s.cfg.Logger; l != nil && msg != "" {
		l.Info(msg,
			slog.String("job", j.id),
			slog.String("state", string(ev.State)),
			slog.Int("items", ev.Stats.Total),
			slog.Int("done", ev.Stats.Done),
			slog.Int("quarantined", ev.Stats.Quarantined),
		)
	}
}

// checkpointLocked journals the record; a failed write keeps the
// in-memory state authoritative and is retried at the next transition.
func (j *job) checkpointLocked() {
	j.rec.Updated = time.Now().UnixNano()
	if err := writeRecord(j.dir, &j.rec); err != nil {
		j.dirty = true
		j.svc.m.journalErrs.Inc()
		if l := j.svc.cfg.Logger; l != nil {
			l.Warn("journal checkpoint failed", slog.String("job", j.id), slog.String("error", err.Error()))
		}
		return
	}
	j.dirty = false
	j.emit(Event{Type: EventCheckpoint})
}

// failLocked applies one failed attempt to an item: requeue under
// backoff, or quarantine once the attempts are spent.
func (j *job) failLocked(idx int, err error, ds []diag.Diagnostic) {
	it := &j.rec.Items[idx]
	it.Error = err.Error()
	if ds != nil {
		it.Diags = ds
	}
	if it.Attempts >= j.svc.cfg.MaxAttempts {
		it.State = ItemQuarantined
		j.emit(Event{Type: EventQuarantined, Item: it.Name,
			Index: idx, Attempt: it.Attempts, Error: it.Error})
		return
	}
	it.State = ItemPending
	delay := Backoff(j.svc.cfg.BackoffBase, j.svc.cfg.BackoffCap, j.id, it.Name, it.Attempts)
	it.NotBefore = time.Now().Add(delay).UnixNano()
	j.rec.Retries++
	j.emit(Event{Type: EventRetried, Item: it.Name,
		Index: idx, Attempt: it.Attempts,
		DelayNS: int64(delay), Error: it.Error})
}

// nextReadyLocked picks the lowest-index dispatchable item, or -1 plus
// the time the next backoff gate opens.
func (j *job) nextReadyLocked() (int, time.Time) {
	nowNs := time.Now().UnixNano()
	var next int64
	for i := range j.rec.Items {
		it := &j.rec.Items[i]
		if it.State != ItemPending {
			continue
		}
		if it.NotBefore <= nowNs {
			return i, time.Time{}
		}
		if next == 0 || it.NotBefore < next {
			next = it.NotBefore
		}
	}
	if next == 0 {
		return -1, time.Time{}
	}
	return -1, time.Unix(0, next)
}

// run is the job's scheduler loop: dispatch ready items onto the shared
// worker pool, and settle the job when every item is terminal. On
// service drain it stops dispatching, waits for in-flight attempts,
// checkpoints, and leaves the job resumable.
func (j *job) run() {
	defer j.svc.wg.Done()
	defer j.svc.m.jobsActive.Dec()
	for {
		j.mu.Lock()
		if j.rec.State == StateQueued {
			j.rec.State = StateRunning
			j.checkpointLocked()
		}
		if !j.rec.State.Terminal() && j.rec.settled() {
			if q := j.rec.stats().Quarantined; q > 0 {
				j.setTerminalLocked(StateFailed, fmt.Sprintf("%d of %d items quarantined", q, len(j.rec.Items)))
			} else {
				j.setTerminalLocked(StateDone, "")
			}
		}
		// A terminal or draining job dispatches nothing more. Once its
		// in-flight attempts report it exits, checkpointing first if it
		// drained (the durable resume point) or a journal write failed.
		if term := j.rec.State.Terminal(); term || j.svc.draining() {
			if j.inflight > 0 {
				j.mu.Unlock()
				j.waitKick()
				continue
			}
			if !term || j.dirty {
				j.checkpointLocked()
			}
			j.mu.Unlock()
			j.finish()
			return
		}
		idx, next := j.nextReadyLocked()
		j.mu.Unlock()

		if idx < 0 {
			j.sleepUntil(next)
			continue
		}
		// A ready sem slot can win the select over a closed drain (select
		// picks randomly among ready cases); claim re-checks the drain, so
		// dispatch still stops deterministically.
		select {
		case j.svc.sem <- struct{}{}:
			j.claim(idx)
		case <-j.ctx.Done():
		case <-j.svc.drain:
		}
	}
}

// finish runs once when the scheduler exits — terminal completion or a
// drain pause. It ends the job's root span, captures the trace into the
// flight recorder (so a finished job's per-item timeline survives in
// /debug/flight), and closes the event hub: subscribers drain their
// queues and then see EOF. A drain-paused stream ends the same way; the
// client reconnects after the restart and the snapshot marks resumption.
func (j *job) finish() {
	j.span.End()
	j.svc.cfg.Flight.Capture(j.trace)
	j.hub.close()
}

// waitKick blocks until a worker reports (or a short safety tick).
func (j *job) waitKick() {
	t := time.NewTimer(50 * time.Millisecond)
	defer t.Stop()
	select {
	case <-j.wake:
	case <-t.C:
	}
}

// sleepUntil blocks until the next scheduling event.
func (j *job) sleepUntil(next time.Time) {
	d := 100 * time.Millisecond
	if !next.IsZero() {
		if until := time.Until(next); until > 0 {
			d = until
		} else {
			d = time.Millisecond
		}
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-j.wake:
	case <-t.C:
	case <-j.ctx.Done():
	case <-j.svc.drain:
	}
}

// claim marks an item running and hands it to a worker goroutine. The
// caller holds a worker-pool slot; claim releases it if the item is no
// longer dispatchable.
func (j *job) claim(idx int) {
	j.mu.Lock()
	it := &j.rec.Items[idx]
	if it.State != ItemPending || j.rec.State.Terminal() || j.svc.draining() || j.ctx.Err() != nil {
		j.mu.Unlock()
		<-j.svc.sem
		return
	}
	it.State = ItemRunning
	it.Attempts++
	attempt := it.Attempts
	j.inflight++
	j.emit(Event{Type: EventClaimed, Item: it.Name,
		Index: idx, Attempt: attempt, Resumed: j.resumed})
	j.checkpointLocked()
	j.mu.Unlock()
	j.svc.m.inflight.Inc()
	// Workers join the service WaitGroup (the scheduler holds it > 0, so
	// the Add cannot race a completed Wait): Close returns only after
	// every worker has fully exited.
	j.svc.wg.Add(1)
	go j.worker(idx, attempt)
}

// worker runs one attempt through batch.Process (store-first) and
// always reports it: a panicking attempt is recovered and counted as a
// failure, and a stalled one is cut off at the per-item Timeout.
func (j *job) worker(idx, attempt int) {
	defer j.svc.wg.Done()
	defer func() {
		<-j.svc.sem
		j.svc.m.inflight.Dec()
		j.kick()
	}()
	// One layer times the attempt for its span and for
	// tdjobs_item_seconds, whose exemplar is the job ID.
	l := obs.Begin(j.ctx, "job.item", j.svc.m.itemSeconds)
	l.Int("index", int64(idx)).Int("attempt", int64(attempt)).Bool("resumed", j.resumed)
	res := func() (r batch.Result) {
		defer func() {
			if p := recover(); p != nil {
				r = batch.Result{Err: fmt.Errorf("jobs: item panic: %v", p)}
			}
		}()
		return j.attempt(l.Context(j.ctx), idx, attempt)
	}()
	l.Bool("cached", res.Cached).Bool("failed", res.Err != nil)
	l.End()
	j.report(idx, res)
}

// attempt executes one translation attempt under the per-item deadline.
func (j *job) attempt(ctx context.Context, idx, attempt int) batch.Result {
	j.mu.Lock()
	name := j.rec.Items[idx].Name
	path := j.rec.Items[idx].Path
	j.mu.Unlock()

	ictx, cancel := context.WithTimeout(ctx, j.svc.cfg.Timeout)
	defer cancel()
	if th := j.svc.cfg.Throttle; th > 0 {
		t := time.NewTimer(th)
		select {
		case <-t.C:
		case <-ictx.Done():
			t.Stop()
			return batch.Result{Err: ictx.Err()}
		}
	}
	if FaultHook != nil {
		if err := FaultHook(Fault{Point: FaultItemStart, Job: j.id, Item: name, Attempt: attempt}); err != nil {
			switch {
			case errors.Is(err, ErrPanic):
				panic(err)
			case errors.Is(err, ErrStall):
				<-ictx.Done()
				return batch.Result{Err: ictx.Err()}
			default:
				return batch.Result{Err: err}
			}
		}
	}
	res := batch.Process(ictx, j.svc.pipe, batch.Item{
		Name: name,
		Open: func() (io.ReadCloser, error) { return os.Open(path) },
	}, batch.Options{Store: j.svc.st, Config: j.svc.cfgHash})
	if res.Err == nil && !res.Stored {
		// Durability before completion: a result that never reached the
		// store cannot be marked done (the journal would point at
		// nothing), so a failed store write is a failed attempt.
		res.Err = errors.New("jobs: artifact not persisted to store")
	}
	return res
}

// report applies an attempt's outcome. The item is still running: its
// worker is the one writer of this claim.
func (j *job) report(idx int, res batch.Result) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.inflight--
	it := &j.rec.Items[idx]
	if res.Err != nil {
		if j.ctx.Err() != nil && errors.Is(res.Err, context.Canceled) {
			// Cancelled mid-flight: hand the attempt back without
			// penalty; the item stays runnable if the job resumes.
			it.State = ItemPending
			it.Attempts--
			j.checkpointLocked()
			return
		}
		var ds []diag.Diagnostic
		if res.Rep != nil {
			ds = res.Rep.Diags
		}
		j.failLocked(idx, res.Err, ds)
		j.checkpointLocked()
		return
	}
	it.State = ItemDone
	it.NotBefore = 0
	it.Error = ""
	it.Diags = nil
	it.Input = res.Input.Hex()
	if res.Cached {
		j.rec.Hits++
	} else {
		j.rec.Misses++
	}
	j.emit(Event{Type: EventDone, Item: it.Name,
		Index: idx, Attempt: it.Attempts,
		Cached: &res.Cached, Resumed: j.resumed})
	j.checkpointLocked()
}
