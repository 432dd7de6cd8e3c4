// Package jobs is the durable asynchronous job layer over the
// content-addressed artifact store (internal/store) and the per-item
// translation path (internal/batch): submit a corpus once, survive worker
// crashes, process restarts and flaky items, and never redo work the
// store already holds.
//
// A job is a Record — ID, resolved pipeline config hash, and one
// ItemRecord per picture with its own attempt count and state machine —
// journaled to disk under <root>/<id>/job.json with the store's atomic
// tmp+rename discipline. Every state transition checkpoints the journal,
// and the previous generation is kept as job.json.prev, so a torn write
// (power loss mid-rename, an external truncation) falls back to the last
// good checkpoint instead of losing the job.
//
// The scheduler claims a pending item by marking it running and handing
// it to one worker, and the claim lasts as long as the process. The
// worker always reports: a panic is recovered and a stall is cut off at
// the per-item Timeout, both as failed attempts, which requeue with
// capped exponential backoff plus deterministic seeded jitter. A process
// that dies holds its claims until the next Open, which reclaims every
// item its journal shows running. After MaxAttempts failed attempts an
// item is quarantined with its diagnostics instead of wedging the job:
// the job still reaches a terminal state and every other item's result
// is served.
//
// Crash-safety is end to end: items are translated through
// batch.Process, which persists each artifact to the store atomically
// before the journal records the item done. A process killed at any
// point therefore resumes by re-claiming only items the journal does not
// show done — and any of those whose artifact did land before the kill
// answer from the store byte-identically instead of being retranslated.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tdmagic/internal/diag"
	"tdmagic/internal/parallel"
	"tdmagic/internal/spo"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued is a submitted job the scheduler has not started.
	StateQueued State = "queued"
	// StateRunning is a job with items being processed (or resumable).
	StateRunning State = "running"
	// StateDone is a terminal job whose every item completed.
	StateDone State = "done"
	// StateFailed is a terminal job with quarantined items, or one that
	// could not run at all (corrupt journal, pipeline config mismatch).
	StateFailed State = "failed"
	// StateCancelled is a terminal job stopped by the client.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ItemState is one item's state within a job.
type ItemState string

const (
	// ItemPending is waiting for dispatch (possibly under a backoff gate).
	ItemPending ItemState = "pending"
	// ItemRunning is claimed by a worker of the running process.
	ItemRunning ItemState = "running"
	// ItemDone has its artifact in the store.
	ItemDone ItemState = "done"
	// ItemQuarantined failed MaxAttempts times and is parked with its
	// diagnostics; the job completes without it.
	ItemQuarantined ItemState = "quarantined"
)

// ItemRecord is the journaled state of one item.
type ItemRecord struct {
	// Name is the item's result name (unique within the job).
	Name string `json:"name"`
	// Path is the picture file the item translates.
	Path string `json:"path"`
	// State is the item's current state.
	State ItemState `json:"state"`
	// Attempts counts claims so far (a crash mid-attempt counts: the
	// journal recorded the claim before the worker started).
	Attempts int `json:"attempts,omitempty"`
	// Input is the hex content hash of the decoded picture, recorded when
	// the item completes; (job config × input) addresses its artifact.
	Input string `json:"input,omitempty"`
	// Error is the most recent failure (kept on quarantine).
	Error string `json:"error,omitempty"`
	// Diags carries the diagnostics of the failing attempt.
	Diags []diag.Diagnostic `json:"diags,omitempty"`
	// NotBefore gates the next dispatch (unix nanos; backoff).
	NotBefore int64 `json:"not_before,omitempty"`
}

// Record is the journaled state of one job.
type Record struct {
	// ID names the job and its directory under the service root.
	ID string `json:"id"`
	// Config is the hex pipeline config hash the job was submitted
	// against; artifacts are stored under it, and a service opened with a
	// different pipeline refuses to resume the job.
	Config string `json:"config"`
	// State is the job's lifecycle state.
	State State `json:"state"`
	// Error explains a failed job.
	Error string `json:"error,omitempty"`
	// Submitter is the request ID of the submitting HTTP request, when one
	// was present. It surfaces in snapshots, logs and flight events for
	// correlation but never enters the results stream, which stays
	// byte-identical across resubmissions.
	Submitter string `json:"submitter,omitempty"`
	// Created and Updated are unix-nano journal timestamps.
	Created int64 `json:"created_unix_ns"`
	Updated int64 `json:"updated_unix_ns"`
	// Hits counts items answered from the store, Misses fresh
	// translations, Retries requeues after a failed attempt, Reclaims
	// running items taken back at Open from a process that died holding
	// them. Hits+Misses can exceed the item count across crash-resume
	// cycles.
	Hits     int `json:"hits"`
	Misses   int `json:"misses"`
	Retries  int `json:"retries"`
	Reclaims int `json:"reclaims"`
	// Items is the per-item journal, in submission order.
	Items []ItemRecord `json:"items"`
}

// Stats summarises a job's per-item states plus its cumulative counters.
type Stats struct {
	Total       int `json:"total"`
	Pending     int `json:"pending"`
	Running     int `json:"running"`
	Done        int `json:"done"`
	Quarantined int `json:"quarantined"`
	Hits        int `json:"hits"`
	Misses      int `json:"misses"`
	Retries     int `json:"retries"`
	Reclaims    int `json:"reclaims"`
}

// stats derives the Stats of a record.
func (r *Record) stats() Stats {
	st := Stats{
		Total: len(r.Items),
		Hits:  r.Hits, Misses: r.Misses,
		Retries: r.Retries, Reclaims: r.Reclaims,
	}
	for i := range r.Items {
		switch r.Items[i].State {
		case ItemPending:
			st.Pending++
		case ItemRunning:
			st.Running++
		case ItemDone:
			st.Done++
		case ItemQuarantined:
			st.Quarantined++
		}
	}
	return st
}

// settled reports whether every item reached a terminal item state.
func (r *Record) settled() bool {
	for i := range r.Items {
		if s := r.Items[i].State; s != ItemDone && s != ItemQuarantined {
			return false
		}
	}
	return true
}

// ItemStatus is one item's externally visible status.
type ItemStatus struct {
	Name     string            `json:"name"`
	State    ItemState         `json:"state"`
	Attempts int               `json:"attempts"`
	Error    string            `json:"error,omitempty"`
	Diags    []diag.Diagnostic `json:"diags,omitempty"`
}

// Snapshot is a point-in-time view of a job, safe to hold after the
// service moves on.
type Snapshot struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	Error     string `json:"error,omitempty"`
	Submitter string `json:"submitter,omitempty"`
	Created   int64  `json:"created_unix_ns"`
	Updated   int64  `json:"updated_unix_ns"`
	Stats     Stats  `json:"stats"`
	// Items is populated only when explicitly requested.
	Items []ItemStatus `json:"items,omitempty"`
}

// ItemResult is one item's entry in the ordered results stream: the
// artifact replayed from the store for done items, the quarantine
// diagnostics for poisoned ones. The encoding carries no run-volatile
// fields (no timestamps, no cache flags), so the streamed results of a
// resumed run are byte-identical to an uninterrupted one.
type ItemResult struct {
	Index int               `json:"index"`
	Name  string            `json:"name"`
	Spec  string            `json:"spec,omitempty"`
	SPO   *spo.SPO          `json:"spo,omitempty"`
	Diags []diag.Diagnostic `json:"diags,omitempty"`
	Error string            `json:"error,omitempty"`
}

// journalFile and journalPrev are the current and previous journal
// generations inside a job directory.
const (
	journalFile = "job.json"
	journalPrev = "job.json.prev"
)

// writeRecord checkpoints rec into dir atomically, keeping the previous
// generation as job.json.prev so a torn write never loses the job: the
// new bytes are staged in a temp file, the old journal is renamed aside,
// and the stage renamed into place — at every instant at least one of
// job.json / job.json.prev is a complete checkpoint.
func writeRecord(dir string, rec *Record) error {
	if FaultHook != nil {
		if err := FaultHook(Fault{Point: FaultJournal, Job: rec.ID}); err != nil {
			return fmt.Errorf("jobs: journal %s: %w", rec.ID, err)
		}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobs: journal %s: %w", rec.ID, err)
	}
	f, err := os.CreateTemp(dir, "journal-*")
	if err != nil {
		return fmt.Errorf("jobs: journal %s: %w", rec.ID, err)
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("jobs: journal %s: %w", rec.ID, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: journal %s: %w", rec.ID, err)
	}
	cur := filepath.Join(dir, journalFile)
	if _, err := os.Stat(cur); err == nil {
		_ = os.Rename(cur, filepath.Join(dir, journalPrev))
	}
	if err := os.Rename(tmp, cur); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobs: journal %s: %w", rec.ID, err)
	}
	return nil
}

// loadRecord reads a job directory's journal, falling back to the
// previous generation when the current one is missing or torn.
func loadRecord(dir string) (*Record, error) {
	var firstErr error
	for _, name := range []string{journalFile, journalPrev} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var rec Record
		if err := json.Unmarshal(data, &rec); err != nil || rec.ID == "" {
			if firstErr == nil {
				firstErr = fmt.Errorf("jobs: %s corrupt", name)
			}
			continue
		}
		return &rec, nil
	}
	if firstErr == nil {
		firstErr = errors.New("jobs: no journal")
	}
	return nil, firstErr
}

// clearStaleJournals removes journal staging files a crash left behind in
// a job directory; none are live across opens.
func clearStaleJournals(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "journal-") {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// Backoff returns the delay before re-dispatching an item that has
// failed `attempt` times: the exponential base<<(attempt-1) capped at
// max, plus a deterministic jitter in [0, delay/2] derived from (jobID,
// item, attempt) through the splitmix64 finalizer. The jitter decorrelates
// a thundering herd of requeued items without consulting the wall clock
// or a shared RNG, so a replayed run produces the identical schedule —
// the property the backoff-determinism tests pin.
func Backoff(base, max time.Duration, jobID, item string, attempt int) time.Duration {
	if base <= 0 {
		base = time.Millisecond
	}
	if max <= 0 {
		max = 30 * time.Second
	}
	if attempt < 1 {
		attempt = 1
	}
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if span := int64(d / 2); span > 0 {
		seed := int64(fnv64(jobID) ^ fnv64(item))
		j := uint64(parallel.Seed(seed, int64(attempt)))
		d += time.Duration(j % uint64(span+1))
	}
	return d
}

// fnv64 is the FNV-1a 64-bit hash, seeding per-item jitter streams.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
