package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tdmagic/internal/core"
	"tdmagic/internal/eval"
	"tdmagic/internal/metrics"
	"tdmagic/internal/store"
	"tdmagic/internal/tdgen"
)

// The suite shares one small trained pipeline; training dominates the
// package's test time otherwise.
var (
	testOnce sync.Once
	testPipe *core.Pipeline
	testErr  error
)

func setup(t *testing.T) *core.Pipeline {
	t.Helper()
	testOnce.Do(func() {
		opts := eval.DefaultOptions()
		opts.TrainG1, opts.TrainG2, opts.TrainG3 = 10, 4, 4
		opts.Validation = 0
		testPipe, testErr = eval.TrainPipeline(opts)
	})
	if testErr != nil {
		t.Fatal(testErr)
	}
	return testPipe
}

// writeCorpus renders n synthetic diagrams as img-%03d.png files and
// returns their paths in name order.
func writeCorpus(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	g := tdgen.NewSeeded(tdgen.DefaultConfig(tdgen.G1), 43)
	paths := make([]string, n)
	for i := 0; i < n; i++ {
		s, err := g.GenerateAt(i)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("img-%03d.png", i))
		f, err := os.Create(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Image.EncodePNG(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
		paths[i] = p
	}
	return paths
}

// pathSpecs wraps corpus paths as submission specs.
func pathSpecs(paths []string) []ItemSpec {
	specs := make([]ItemSpec, len(paths))
	for i, p := range paths {
		specs[i] = ItemSpec{
			Name: strings.TrimSuffix(filepath.Base(p), filepath.Ext(p)),
			Path: p,
		}
	}
	return specs
}

// fastCfg returns a test config with tight timings so retries play out
// in milliseconds.
func fastCfg() Config {
	return Config{
		Workers:     2,
		MaxAttempts: 3,
		BackoffBase: time.Millisecond,
		BackoffCap:  5 * time.Millisecond,
		Timeout:     30 * time.Second,
	}
}

// newService opens a service over fresh temp store and journal dirs.
func newService(t *testing.T, pipe *core.Pipeline, cfg Config) (*Service, string, string) {
	t.Helper()
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(jobsDir, pipe, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc, storeDir, jobsDir
}

// reopen opens a second service generation over existing dirs.
func reopen(t *testing.T, pipe *core.Pipeline, storeDir, jobsDir string, cfg Config) *Service {
	t.Helper()
	st, err := store.Open(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := Open(jobsDir, pipe, st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// closeService drains a service with a bounded deadline.
func closeService(t *testing.T, svc *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatal(err)
	}
}

// waitDone blocks until the job is terminal and returns its snapshot.
func waitDone(t *testing.T, svc *Service, id string) Snapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	sn, err := svc.Wait(ctx, id)
	if err != nil {
		t.Fatalf("wait %s: %v (state %s)", id, err, sn.State)
	}
	return sn
}

// resultLines streams a job's results and returns them as NDJSON bytes —
// the exact encoding the HTTP results endpoint serves, so byte equality
// here is byte equality on the wire.
func resultLines(t *testing.T, svc *Service, id string) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := svc.Results(id, func(r ItemResult) error { return enc.Encode(r) }); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setFaultHook installs a hook for the duration of the test. Hooks must
// be installed before the service under test opens and cleared only
// after it closes, so tests gate behaviour through atomics the hook
// closure reads rather than swapping the hook mid-run.
func setFaultHook(t *testing.T, hook func(Fault) error) {
	t.Helper()
	FaultHook = hook
	t.Cleanup(func() { FaultHook = nil })
}

// TestJobLifecycle submits a small corpus and follows it to done: every
// item translated exactly once, results streamed in submission order.
func TestJobLifecycle(t *testing.T) {
	pipe := setup(t)
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)

	paths := writeCorpus(t, 4)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Stats.Total != 4 {
		t.Fatalf("submitted %d items, want 4", sn.Stats.Total)
	}
	final := waitDone(t, svc, sn.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Stats.Done != 4 || final.Stats.Misses != 4 || final.Stats.Hits != 0 {
		t.Fatalf("stats = %+v", final.Stats)
	}
	var names []string
	if err := svc.Results(sn.ID, func(r ItemResult) error {
		if r.Error != "" || r.Spec == "" {
			t.Errorf("item %d: error=%q spec empty=%v", r.Index, r.Error, r.Spec == "")
		}
		names = append(names, r.Name)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, p := range paths {
		want := strings.TrimSuffix(filepath.Base(p), ".png")
		if names[i] != want {
			t.Errorf("result %d = %s, want %s", i, names[i], want)
		}
	}

	// A second identical submission answers entirely from the store.
	sn2, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	final2 := waitDone(t, svc, sn2.ID)
	if final2.Stats.Hits != 4 || final2.Stats.Misses != 0 {
		t.Fatalf("warm stats = %+v, want all hits", final2.Stats)
	}
	if a, b := resultLines(t, svc, sn.ID), resultLines(t, svc, sn2.ID); !bytes.Equal(a, b) {
		t.Fatal("warm job results differ from cold job results")
	}
}

// TestWorkerInvarianceByteIdentical pins the determinism contract at the
// job level: the streamed NDJSON results are byte-identical for any
// worker count, each against a fresh store.
func TestWorkerInvarianceByteIdentical(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 6)
	var base []byte
	for _, workers := range []int{1, 2, 7, runtime.GOMAXPROCS(0)} {
		cfg := fastCfg()
		cfg.Workers = workers
		svc, _, _ := newService(t, pipe, cfg)
		sn, err := svc.Submit(pathSpecs(paths))
		if err != nil {
			t.Fatal(err)
		}
		if got := waitDone(t, svc, sn.ID); got.State != StateDone {
			t.Fatalf("workers=%d: state %s (%s)", workers, got.State, got.Error)
		}
		lines := resultLines(t, svc, sn.ID)
		closeService(t, svc)
		if base == nil {
			base = lines
			continue
		}
		if !bytes.Equal(lines, base) {
			t.Errorf("workers=%d: results differ from workers=1", workers)
		}
	}
}

// TestRetryThenSuccess injects transient failures into one item's first
// two attempts and requires the third to succeed, with the retries
// journaled and the backoff schedule respected.
func TestRetryThenSuccess(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	var tries atomic.Int64
	setFaultHook(t, func(f Fault) error {
		if f.Point == FaultItemStart && f.Item == "img-000" {
			if tries.Add(1) <= 2 {
				return errors.New("injected transient failure")
			}
		}
		return nil
	})
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, sn.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Stats.Retries != 2 {
		t.Errorf("retries = %d, want 2", final.Stats.Retries)
	}
	got, ok := svc.Get(sn.ID, true)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.Items[0].Attempts != 3 {
		t.Errorf("item attempts = %d, want 3", got.Items[0].Attempts)
	}
	if got.Items[1].Attempts != 1 {
		t.Errorf("healthy item attempts = %d, want 1", got.Items[1].Attempts)
	}
}

// TestPanicRecovered injects a panic into an item's first attempt: the
// worker must recover it into a failed attempt and the retry succeed.
func TestPanicRecovered(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 1)
	setFaultHook(t, func(f Fault) error {
		if f.Point == FaultItemStart && f.Attempt == 1 {
			return ErrPanic
		}
		return nil
	})
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, sn.ID)
	if final.State != StateDone || final.Stats.Retries != 1 {
		t.Fatalf("state=%s retries=%d, want done/1", final.State, final.Stats.Retries)
	}
}

// TestStallQuarantine injects a stall into every attempt of one item
// under a tight per-item deadline: each attempt must die at the deadline
// and the item quarantine with its diagnostics after MaxAttempts, while
// the healthy item completes and the job reaches failed — not wedged.
func TestStallQuarantine(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	setFaultHook(t, func(f Fault) error {
		if f.Point == FaultItemStart && f.Item == "img-001" {
			return ErrStall
		}
		return nil
	})
	cfg := fastCfg()
	cfg.MaxAttempts = 2
	cfg.Timeout = 150 * time.Millisecond
	svc, _, _ := newService(t, pipe, cfg)
	defer closeService(t, svc)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, sn.ID)
	if final.State != StateFailed {
		t.Fatalf("state = %s, want failed", final.State)
	}
	if final.Stats.Done != 1 || final.Stats.Quarantined != 1 {
		t.Fatalf("stats = %+v", final.Stats)
	}
	if !strings.Contains(final.Error, "1 of 2 items quarantined") {
		t.Errorf("job error = %q", final.Error)
	}
	seen := 0
	if err := svc.Results(sn.ID, func(r ItemResult) error {
		seen++
		switch r.Name {
		case "img-000":
			if r.Error != "" || r.Spec == "" {
				t.Errorf("healthy item: error=%q", r.Error)
			}
		case "img-001":
			if !strings.Contains(r.Error, "deadline") {
				t.Errorf("quarantined item error = %q, want a deadline error", r.Error)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 2 {
		t.Fatalf("streamed %d results, want 2", seen)
	}
}

// TestDecodeErrorQuarantine submits a poisoned corpus entry — a file
// that is not a PNG — and requires it quarantined with a decode error
// while every healthy item completes.
func TestDecodeErrorQuarantine(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	bad := filepath.Join(filepath.Dir(paths[0]), "poison.png")
	if err := os.WriteFile(bad, []byte("this is not a png"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.MaxAttempts = 2
	svc, _, _ := newService(t, pipe, cfg)
	defer closeService(t, svc)
	sn, err := svc.Submit(append(pathSpecs(paths), ItemSpec{Name: "poison", Path: bad}))
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, sn.ID)
	if final.State != StateFailed || final.Stats.Quarantined != 1 || final.Stats.Done != 2 {
		t.Fatalf("state=%s stats=%+v", final.State, final.Stats)
	}
	got, _ := svc.Get(sn.ID, true)
	q := got.Items[2]
	if q.State != ItemQuarantined || q.Attempts != 2 || q.Error == "" {
		t.Fatalf("poisoned item = %+v", q)
	}
}

// TestLeaseReclaim opens a service over a journal in the format that
// still carried per-item leases: the job running, and one item running
// on attempt 1 with a lease stamped an hour ahead. The process that held
// the claim is gone, so Open must reclaim the item whatever the stamp
// says, and the retry must finish the job on attempt 2 with the reclaim
// counted in the stats and on tdjobs_lease_reclaims_total.
func TestLeaseReclaim(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 1)
	storeDir, jobsDir := t.TempDir(), t.TempDir()
	const id = "lease-journal"
	dir := filepath.Join(jobsDir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	journal := leaseJournal(id, pipe.ConfigHash().Hex(), paths[0], time.Now().Add(time.Hour).UnixNano())
	if err := os.WriteFile(filepath.Join(dir, journalFile), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := fastCfg()
	cfg.Registry = metrics.NewRegistry()
	svc := reopen(t, pipe, storeDir, jobsDir, cfg)
	defer closeService(t, svc)
	final := waitDone(t, svc, id)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if final.Stats.Reclaims != 1 {
		t.Errorf("reclaims = %d, want 1", final.Stats.Reclaims)
	}
	got, _ := svc.Get(id, true)
	if it := got.Items[0]; it.State != ItemDone || it.Attempts != 2 {
		t.Fatalf("item = %+v, want done on attempt 2", it)
	}
	var buf bytes.Buffer
	if err := cfg.Registry.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "\ntdjobs_lease_reclaims_total 1\n") {
		t.Errorf("tdjobs_lease_reclaims_total is not 1:\n%s", buf.String())
	}
}

// TestJournalFaultsDoNotLoseWork fails every journal checkpoint once the
// job is submitted: the service must keep running on in-memory state and
// finish the job, and a reopened service — resuming from the stale
// journal — must converge to the same results entirely from the store.
func TestJournalFaultsDoNotLoseWork(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 3)
	var jfail atomic.Bool
	setFaultHook(t, func(f Fault) error {
		if f.Point == FaultJournal && jfail.Load() {
			return errors.New("injected disk-full")
		}
		return nil
	})
	svc, storeDir, jobsDir := newService(t, pipe, fastCfg())
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	jfail.Store(true)
	final := waitDone(t, svc, sn.ID)
	if final.State != StateDone {
		t.Fatalf("state = %s (%s), want done", final.State, final.Error)
	}
	if svc.m.journalErrs.Value() == 0 {
		t.Fatal("no journal errors recorded despite the fault")
	}
	want := resultLines(t, svc, sn.ID)
	closeService(t, svc)
	jfail.Store(false)

	// The stale on-disk journal is behind reality; the store is not. The
	// resumed job must replay every item as a hit.
	svc2 := reopen(t, pipe, storeDir, jobsDir, fastCfg())
	defer closeService(t, svc2)
	final2 := waitDone(t, svc2, sn.ID)
	if final2.State != StateDone {
		t.Fatalf("resumed state = %s (%s)", final2.State, final2.Error)
	}
	if final2.Stats.Misses != 0 {
		t.Errorf("resumed job retranslated %d items; all were in the store", final2.Stats.Misses)
	}
	if got := resultLines(t, svc2, sn.ID); !bytes.Equal(got, want) {
		t.Error("resumed results differ from the original run")
	}
}

// TestDrainResume closes the service mid-job and reopens it: the
// restarted generation must resume the job exactly — no lost items, no
// retranslation of anything whose artifact already landed — and stream
// results byte-identical to an uninterrupted cold run.
func TestDrainResume(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 8)

	cfg := fastCfg()
	cfg.Throttle = 25 * time.Millisecond
	svc, storeDir, jobsDir := newService(t, pipe, cfg)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	// Let it make partial progress, then drain.
	deadline := time.Now().Add(60 * time.Second)
	for {
		got, _ := svc.Get(sn.ID, false)
		if got.Stats.Done >= 2 || got.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no progress before drain")
		}
		time.Sleep(5 * time.Millisecond)
	}
	closeService(t, svc)

	rec, err := loadRecord(filepath.Join(jobsDir, sn.ID))
	if err != nil {
		t.Fatal(err)
	}
	doneAtClose := rec.stats().Done
	if rec.State.Terminal() && rec.stats().Done < len(paths) {
		t.Fatalf("drained mid-run into terminal state %s", rec.State)
	}

	resumed := reopen(t, pipe, storeDir, jobsDir, fastCfg())
	defer closeService(t, resumed)
	final := waitDone(t, resumed, sn.ID)
	if final.State != StateDone || final.Stats.Done != len(paths) {
		t.Fatalf("resumed: state=%s stats=%+v", final.State, final.Stats)
	}
	// The hit/miss counters are cumulative across the journal's life: a
	// graceful drain checkpoints exactly, so each item is translated
	// exactly once across the two generations — total misses equal the
	// corpus, and nothing is redone (which would inflate them).
	if final.Stats.Misses != len(paths) || final.Stats.Hits != 0 {
		t.Errorf("misses=%d hits=%d across drain+resume, want %d/0 (done at close: %d)",
			final.Stats.Misses, final.Stats.Hits, len(paths), doneAtClose)
	}
	got := resultLines(t, resumed, sn.ID)

	cold, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, cold)
	csn, err := cold.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, cold, csn.ID)
	if want := resultLines(t, cold, csn.ID); !bytes.Equal(got, want) {
		t.Error("resumed results differ from an uninterrupted cold run")
	}
}

// TestTornJournalFallsBack corrupts the current journal generation of a
// finished job and requires the reopened service to fall back to
// job.json.prev and converge; with both generations corrupt the job must
// surface as failed rather than vanish.
func TestTornJournalFallsBack(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	svc, storeDir, jobsDir := newService(t, pipe, fastCfg())
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, sn.ID)
	closeService(t, svc)

	dir := filepath.Join(jobsDir, sn.ID)
	// A torn write: the current generation is half a JSON document.
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(`{"id":"`), 0o644); err != nil {
		t.Fatal(err)
	}
	svc2 := reopen(t, pipe, storeDir, jobsDir, fastCfg())
	if _, ok := svc2.Get(sn.ID, false); !ok {
		t.Fatal("job lost after a torn journal write")
	}
	final := waitDone(t, svc2, sn.ID)
	// The previous generation already records both items done with their
	// two cumulative misses; recovery must not redo any work on top.
	if final.State != StateDone || final.Stats.Misses != 2 || final.Stats.Hits != 0 {
		t.Fatalf("recovered job: state=%s stats=%+v (want done, no extra work)", final.State, final.Stats)
	}
	closeService(t, svc2)

	// Both generations corrupt: the job parks as failed with a diagnosis.
	for _, name := range []string{journalFile, journalPrev} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc3 := reopen(t, pipe, storeDir, jobsDir, fastCfg())
	defer closeService(t, svc3)
	got, ok := svc3.Get(sn.ID, false)
	if !ok {
		t.Fatal("job vanished with both journal generations corrupt")
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "journal unrecoverable") {
		t.Fatalf("state=%s error=%q", got.State, got.Error)
	}
}

// TestSubmitValidation pins the submission guardrails: every refused
// submission leaves nothing under the jobs root. Names and paths must be
// valid UTF-8, since the JSON journal would rewrite other bytes to
// U+FFFD and the item of a resumed job would open a file that does not
// exist.
func TestSubmitValidation(t *testing.T) {
	pipe := setup(t)
	cfg := fastCfg()
	cfg.MaxItems = 2
	svc, _, jobsDir := newService(t, pipe, cfg)
	defer closeService(t, svc)

	cases := []struct {
		name  string
		specs []ItemSpec
	}{
		{"empty", nil},
		{"traversal name", []ItemSpec{{Name: "../escape", Path: "x.png"}}},
		{"dot name", []ItemSpec{{Name: "..", Path: "x.png"}}},
		{"duplicate names", []ItemSpec{{Name: "a", Path: "x.png"}, {Name: "a", Path: "y.png"}}},
		{"too many items", []ItemSpec{{Name: "a", Path: "x"}, {Name: "b", Path: "y"}, {Name: "c", Path: "z"}}},
		{"non-UTF-8 upload name", []ItemSpec{{Name: "a\xffb", Data: strings.NewReader("\x89PNG")}}},
		{"non-UTF-8 name", []ItemSpec{{Name: "a\xffb", Path: "x.png"}}},
		{"non-UTF-8 path", []ItemSpec{{Name: "a", Path: "a\xffb.png"}}},
	}
	for _, tc := range cases {
		if _, err := svc.Submit(tc.specs); err == nil {
			t.Errorf("%s: submission accepted", tc.name)
		}
	}
	entries, err := os.ReadDir(jobsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || len(svc.List()) != 0 {
		t.Errorf("refused submissions left %d entries under the jobs root and %d jobs", len(entries), len(svc.List()))
	}
}

// TestCancel stops a running job and requires a terminal cancelled state
// with no further progress and ErrRunning semantics replaced by a
// results stream that marks unexecuted items.
func TestCancel(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 6)
	cfg := fastCfg()
	cfg.Workers = 1
	cfg.Throttle = 30 * time.Millisecond
	svc, _, _ := newService(t, pipe, cfg)
	defer closeService(t, svc)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Results(sn.ID, func(ItemResult) error { return nil }); !errors.Is(err, ErrRunning) {
		t.Fatalf("results on a live job = %v, want ErrRunning", err)
	}
	if _, err := svc.Cancel(sn.ID); err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, svc, sn.ID)
	if final.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final.State)
	}
	unexecuted := 0
	if err := svc.Results(sn.ID, func(r ItemResult) error {
		if strings.Contains(r.Error, "not executed") {
			unexecuted++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if unexecuted == 0 {
		t.Error("cancelled mid-run but every item reports executed")
	}
	if _, err := svc.Cancel("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancel of unknown job = %v, want ErrNotFound", err)
	}
}

// TestSubmitCancelRace hammers concurrent submissions, cancellations and
// status reads; run under -race this pins the locking discipline.
func TestSubmitCancelRace(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	cfg := fastCfg()
	cfg.Throttle = 5 * time.Millisecond
	svc, _, _ := newService(t, pipe, cfg)
	defer closeService(t, svc)

	const jobsN = 8
	ids := make([]string, jobsN)
	var wg sync.WaitGroup
	for i := 0; i < jobsN; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sn, err := svc.Submit(pathSpecs(paths))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = sn.ID
			if i%2 == 0 {
				if _, err := svc.Cancel(sn.ID); err != nil {
					t.Error(err)
				}
			}
			svc.Get(sn.ID, true)
			svc.List()
		}(i)
	}
	wg.Wait()
	for i, id := range ids {
		if id == "" {
			continue
		}
		final := waitDone(t, svc, id)
		if !final.State.Terminal() {
			t.Errorf("job %d not terminal: %s", i, final.State)
		}
		if i%2 == 1 && final.State != StateDone {
			t.Errorf("uncancelled job %d = %s (%s)", i, final.State, final.Error)
		}
	}
}

// TestBackoffDeterministic pins the retry schedule: pure in its inputs,
// monotonically growing to the cap, and decorrelated across items.
func TestBackoffDeterministic(t *testing.T) {
	base, cap := 100*time.Millisecond, 2*time.Second
	for attempt := 1; attempt <= 8; attempt++ {
		a := Backoff(base, cap, "job-1", "item-a", attempt)
		b := Backoff(base, cap, "job-1", "item-a", attempt)
		if a != b {
			t.Fatalf("attempt %d: schedule not deterministic (%v vs %v)", attempt, a, b)
		}
		exp := base << (attempt - 1)
		if exp > cap {
			exp = cap
		}
		if a < exp || a > exp+exp/2 {
			t.Errorf("attempt %d: %v outside [%v, %v]", attempt, a, exp, exp+exp/2)
		}
	}
	// Jitter must decorrelate distinct items somewhere in the schedule.
	diff := false
	for attempt := 1; attempt <= 8 && !diff; attempt++ {
		diff = Backoff(base, cap, "job-1", "item-a", attempt) != Backoff(base, cap, "job-1", "item-b", attempt)
	}
	if !diff {
		t.Error("distinct items share an identical backoff schedule — jitter dead")
	}
}

// TestConfigMismatchRefused reopens a journal directory with a pipeline
// whose config hash differs: the unfinished job must fail loudly, not
// silently mix artifacts from two models.
func TestConfigMismatchRefused(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	cfg := fastCfg()
	cfg.Throttle = 50 * time.Millisecond
	svc, storeDir, jobsDir := newService(t, pipe, cfg)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	closeService(t, svc) // drain mid-run: job stays resumable

	rec, err := loadRecord(filepath.Join(jobsDir, sn.ID))
	if err != nil {
		t.Fatal(err)
	}
	if rec.State.Terminal() {
		t.Skip("job finished before the drain; nothing to refuse")
	}
	// Forge a config mismatch by rewriting the journaled hash.
	rec.Config = strings.Repeat("ab", 32)
	if err := writeRecord(filepath.Join(jobsDir, sn.ID), rec); err != nil {
		t.Fatal(err)
	}
	svc2 := reopen(t, pipe, storeDir, jobsDir, fastCfg())
	defer closeService(t, svc2)
	got, ok := svc2.Get(sn.ID, false)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "configuration changed") {
		t.Fatalf("state=%s error=%q", got.State, got.Error)
	}
}

// TestLoggerNoDeadlock runs the full lifecycle with a logger attached.
// The "job finished" and "job cancelled" lines are emitted under j.mu;
// before the snapshotLocked split they re-locked it, wedging the
// scheduler goroutine with the job mutex held — exactly tdserve's
// default (non -quiet) configuration, which no other test exercises.
func TestLoggerNoDeadlock(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 3)
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	cfg := fastCfg()
	cfg.Logger = logger
	svc, _, _ := newService(t, pipe, cfg)
	defer closeService(t, svc)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	final, err := svc.Wait(ctx, sn.ID)
	if err != nil {
		t.Fatalf("wait with logger attached: %v — scheduler deadlocked?", err)
	}
	if final.State != StateDone {
		t.Fatalf("state = %s (%s)", final.State, final.Error)
	}

	// The cancel path logs under the same lock discipline.
	cfg2 := fastCfg()
	cfg2.Workers = 1
	cfg2.Throttle = 20 * time.Millisecond
	cfg2.Logger = logger
	svc2, _, _ := newService(t, pipe, cfg2)
	defer closeService(t, svc2)
	sn2, err := svc2.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc2.Cancel(sn2.ID); err != nil {
		t.Fatal(err)
	}
	final2, err := svc2.Wait(ctx, sn2.ID)
	if err != nil {
		t.Fatalf("wait after logged cancel: %v — scheduler deadlocked?", err)
	}
	if final2.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", final2.State)
	}
}

// TestCorruptJournalReleasesWaiters corrupts both journal generations:
// reopen parks the job failed, and Wait must return immediately — the
// terminal channel closes even though the job never gets a scheduler.
func TestCorruptJournalReleasesWaiters(t *testing.T) {
	pipe := setup(t)
	paths := writeCorpus(t, 2)
	svc, storeDir, jobsDir := newService(t, pipe, fastCfg())
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, sn.ID)
	closeService(t, svc)

	for _, name := range []string{journalFile, journalPrev} {
		if err := os.WriteFile(filepath.Join(jobsDir, sn.ID, name), []byte(`{"torn`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc2 := reopen(t, pipe, storeDir, jobsDir, fastCfg())
	defer closeService(t, svc2)
	got, ok := svc2.Get(sn.ID, false)
	if !ok {
		t.Fatal("job vanished")
	}
	if got.State != StateFailed || !strings.Contains(got.Error, "journal unrecoverable") {
		t.Fatalf("state=%s error=%q", got.State, got.Error)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := svc2.Wait(ctx, sn.ID); err != nil {
		t.Fatalf("Wait on a journal-corrupt job blocked: %v", err)
	}
}
