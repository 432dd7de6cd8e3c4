package batch_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"tdmagic/internal/batch"
	"tdmagic/internal/core"
	"tdmagic/internal/eval"
	"tdmagic/internal/imgproc"
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

// genSource returns a fresh n-item synthetic source; generation happens
// lazily on executor workers.
func genSource(n int) batch.Source {
	g := tdgen.NewSeeded(tdgen.DefaultConfig(tdgen.G1), 41)
	return batch.Func(n, func(i int) batch.Item {
		return batch.Item{
			Name: fmt.Sprintf("gen-%05d", i),
			Load: func() (*imgproc.Gray, error) {
				s, err := g.GenerateAt(i)
				if err != nil {
					return nil, err
				}
				return s.Image, nil
			},
		}
	})
}

// collect runs the executor and gathers results in emission order.
func collect(t *testing.T, pipe *core.Pipeline, src batch.Source, opts batch.Options) ([]batch.Result, batch.Stats) {
	t.Helper()
	var out []batch.Result
	stats, err := batch.Run(context.Background(), pipe, src, opts, func(r batch.Result) error {
		out = append(out, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, stats
}

// TestOrderInvariance pins the determinism contract: the emitted result
// sequence — indices, names and spec text — is identical for any worker
// count, including under the race detector.
func TestOrderInvariance(t *testing.T) {
	pipe := setup(t)
	const n = 12
	base, stats := collect(t, pipe, genSource(n), batch.Options{Workers: 1})
	if stats.Items != n || stats.Errors != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	for i, r := range base {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
	}
	for _, workers := range []int{2, 7, runtime.GOMAXPROCS(0)} {
		got, _ := collect(t, pipe, genSource(n), batch.Options{Workers: workers})
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(base))
		}
		for i := range base {
			if got[i].Index != base[i].Index || got[i].Name != base[i].Name {
				t.Errorf("workers=%d: result %d is %s/#%d, want %s/#%d",
					workers, i, got[i].Name, got[i].Index, base[i].Name, base[i].Index)
			}
			if got[i].Spec != base[i].Spec {
				t.Errorf("workers=%d: result %d spec differs from workers=1", workers, i)
			}
		}
	}
}

// TestStoreWarmRunByteIdentical runs a corpus cold then warm against one
// store and requires every warm item to be a cache hit replaying the
// cold run's spec text byte for byte.
func TestStoreWarmRunByteIdentical(t *testing.T) {
	pipe := setup(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts := batch.Options{Workers: 4, Store: st, Config: pipe.ConfigHash()}
	const n = 8

	cold, stats := collect(t, pipe, genSource(n), opts)
	if stats.Misses != n || stats.Hits != 0 {
		t.Fatalf("cold stats = %+v", stats)
	}
	warm, stats := collect(t, pipe, genSource(n), opts)
	if stats.Hits != n || stats.Misses != 0 {
		t.Fatalf("warm stats = %+v", stats)
	}
	for i := range cold {
		if !warm[i].Cached {
			t.Errorf("warm item %d not served from store", i)
		}
		if warm[i].Spec != cold[i].Spec {
			t.Errorf("item %d: warm spec differs from cold", i)
		}
		if warm[i].Input != cold[i].Input {
			t.Errorf("item %d: input hash differs across runs", i)
		}
	}

	// A different config hash must miss: the store keys on config × input.
	other := opts
	other.Config = store.HashBytes([]byte("other config"))
	_, stats = collect(t, pipe, genSource(n), other)
	if stats.Hits != 0 {
		t.Errorf("foreign config hit the cache: %+v", stats)
	}
}

// writeCorpus renders n synthetic diagrams as PNG files and returns the dir.
func writeCorpus(t *testing.T, n int) string {
	t.Helper()
	dir := t.TempDir()
	g := tdgen.NewSeeded(tdgen.DefaultConfig(tdgen.G1), 43)
	for i := 0; i < n; i++ {
		s, err := g.GenerateAt(i)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("img-%03d.png", i)))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Image.EncodePNG(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return dir
}

// TestCrashResume interrupts a corpus by deleting a subset of artifacts
// (equivalent to a run killed mid-way: atomic renames mean the store holds
// only complete entries) and requires the re-run to translate exactly the
// missing items.
func TestCrashResume(t *testing.T) {
	pipe := setup(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := writeCorpus(t, 6)
	opts := batch.Options{Workers: 3, Store: st, Config: pipe.ConfigHash()}

	src, err := batch.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	cold, stats := collect(t, pipe, src, opts)
	if stats.Misses != 6 {
		t.Fatalf("cold stats = %+v", stats)
	}

	// "Crash": drop two artifacts. Aliases survive, pointing at the gone
	// objects — the executor must treat those as misses and heal them.
	for _, i := range []int{1, 4} {
		if err := st.Remove(opts.Config, cold[i].Input); err != nil {
			t.Fatal(err)
		}
	}

	src, err = batch.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, stats := collect(t, pipe, src, opts)
	if stats.Misses != 2 || stats.Hits != 4 {
		t.Fatalf("resume stats = %+v, want 2 misses / 4 hits", stats)
	}
	for i := range cold {
		if resumed[i].Spec != cold[i].Spec {
			t.Errorf("item %d: resumed spec differs", i)
		}
		wantCached := i != 1 && i != 4
		if resumed[i].Cached != wantCached {
			t.Errorf("item %d: cached = %v, want %v", i, resumed[i].Cached, wantCached)
		}
	}
	if n, _ := st.Count(opts.Config); n != 6 {
		t.Errorf("store holds %d artifacts after resume, want 6", n)
	}
}

// TestDirWarmRunSkipsDecode pins the alias fast path: a warm run over an
// unchanged directory hits for every file (resolved via the alias index,
// without decoding).
func TestDirWarmRunSkipsDecode(t *testing.T) {
	pipe := setup(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir := writeCorpus(t, 4)
	opts := batch.Options{Workers: 2, Store: st, Config: pipe.ConfigHash()}

	src, _ := batch.Dir(dir)
	_, stats := collect(t, pipe, src, opts)
	if stats.Misses != 4 {
		t.Fatalf("cold stats = %+v", stats)
	}
	src, _ = batch.Dir(dir)
	warm, stats := collect(t, pipe, src, opts)
	if stats.Hits != 4 {
		t.Fatalf("warm stats = %+v", stats)
	}
	for _, r := range warm {
		if !r.Cached || r.Input.IsZero() {
			t.Errorf("item %s: cached=%v input=%s", r.Name, r.Cached, r.Input.Hex())
		}
	}
}

// TestAliasOnlyAfterStoredArtifact pins the alias invariant: when the
// artifact's Put fails the translation still succeeds, but no alias is
// recorded, so the index never resolves to a missing artifact; once a Put
// succeeds, the alias follows it.
func TestAliasOnlyAfterStoredArtifact(t *testing.T) {
	pipe := setup(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(writeCorpus(t, 1), "img-000.png")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rawKey := store.HashBytes(raw)
	it := batch.Item{Name: "img-000.png", Open: func() (io.ReadCloser, error) { return os.Open(path) }}
	opts := batch.Options{Store: st, Config: pipe.ConfigHash()}

	store.FaultHook = func(op, _ string) error {
		if op == "put" {
			return errors.New("disk full")
		}
		return nil
	}
	defer func() { store.FaultHook = nil }()
	r := batch.Process(context.Background(), pipe, it, opts)
	if r.Err != nil || r.Stored {
		t.Fatalf("failed put: err=%v stored=%v, want an unstored translation", r.Err, r.Stored)
	}
	if input, ok := st.GetAlias(rawKey); ok {
		t.Fatalf("alias recorded for the unstored artifact %s", input.Hex())
	}

	store.FaultHook = nil
	r = batch.Process(context.Background(), pipe, it, opts)
	if r.Err != nil || !r.Stored || r.Cached {
		t.Fatalf("healthy put: err=%v stored=%v cached=%v", r.Err, r.Stored, r.Cached)
	}
	if input, ok := st.GetAlias(rawKey); !ok || input != r.Input {
		t.Fatalf("alias = %s %v, want %s", input.Hex(), ok, r.Input.Hex())
	}
}

// TestCorruptArtifactHeals pins the resolver's hit validation: a stored
// artifact that does not decode is counted corrupt, answered as a miss,
// and overwritten by the re-translation, which the next run hits.
func TestCorruptArtifactHeals(t *testing.T) {
	pipe := setup(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := store.NewMetrics(metrics.NewRegistry())
	st.SetMetrics(m)
	s, err := tdgen.NewSeeded(tdgen.DefaultConfig(tdgen.G1), 41).GenerateAt(0)
	if err != nil {
		t.Fatal(err)
	}
	it := batch.Item{Name: "x", Image: s.Image}
	opts := batch.Options{Store: st, Config: pipe.ConfigHash()}
	if err := st.Put(opts.Config, store.HashImage(s.Image), []byte(`{"spec":`)); err != nil {
		t.Fatal(err)
	}

	r := batch.Process(context.Background(), pipe, it, opts)
	if r.Err != nil || r.Cached || !r.Stored {
		t.Fatalf("over a corrupt artifact: err=%v cached=%v stored=%v, want a stored re-translation", r.Err, r.Cached, r.Stored)
	}
	if got := m.Corrupt.Value(); got != 1 {
		t.Errorf("corrupt count = %d, want 1", got)
	}
	healed := batch.Process(context.Background(), pipe, it, opts)
	if !healed.Cached || healed.Spec != r.Spec {
		t.Errorf("healed artifact: cached=%v spec equal=%v", healed.Cached, healed.Spec == r.Spec)
	}
}

// TestPerItemErrorsDoNotStopTheRun feeds a corrupt file between two good
// ones; the bad item surfaces as its own Result.Err, the good items
// translate, and nothing is persisted for the failure.
func TestPerItemErrorsDoNotStopTheRun(t *testing.T) {
	pipe := setup(t)
	dir := writeCorpus(t, 2)
	if err := os.WriteFile(filepath.Join(dir, "img-001a-bad.png"), []byte("not a png"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src, err := batch.Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out, stats := collect(t, pipe, src, batch.Options{Workers: 2, Store: st, Config: pipe.ConfigHash()})
	if stats.Items != 3 || stats.Errors != 1 || stats.Misses != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	// Sorted order: img-000, img-001, img-001a-bad.
	if out[2].Err == nil {
		t.Error("corrupt png produced no error")
	}
	if out[0].Err != nil || out[1].Err != nil {
		t.Errorf("good items failed: %v, %v", out[0].Err, out[1].Err)
	}
	if n, _ := st.Count(pipe.ConfigHash()); n != 2 {
		t.Errorf("store holds %d artifacts, want 2 (errors never persisted)", n)
	}
}

// TestEmitErrorCancelsRun: an emit failure stops the stream and is the
// run's error.
func TestEmitErrorCancelsRun(t *testing.T) {
	pipe := setup(t)
	sentinel := errors.New("sink full")
	n := 0
	_, err := batch.Run(context.Background(), pipe, genSource(50), batch.Options{Workers: 2},
		func(r batch.Result) error {
			n++
			if n == 2 {
				return sentinel
			}
			return nil
		})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if n != 2 {
		t.Fatalf("emit called %d times after error", n)
	}
}

// TestContextCancellation: a cancelled context ends the run promptly with
// the context's error.
func TestContextCancellation(t *testing.T) {
	pipe := setup(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = batch.Run(ctx, pipe, genSource(500), batch.Options{Workers: 2},
			func(r batch.Result) error {
				if r.Index == 1 {
					cancel()
				}
				return nil
			})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not stop after cancellation")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", runErr)
	}
}

// TestSourceErrorAbortsRun: a failing source terminates the whole run.
func TestSourceErrorAbortsRun(t *testing.T) {
	pipe := setup(t)
	boom := errors.New("listing failed")
	src := &flakySource{after: 2, err: boom}
	_, err := batch.Run(context.Background(), pipe, src, batch.Options{Workers: 2}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want source error", err)
	}
}

type flakySource struct {
	n     int
	after int
	err   error
}

func (s *flakySource) Next() (batch.Item, error) {
	if s.n >= s.after {
		return batch.Item{}, s.err
	}
	s.n++
	return batch.Item{
		Name:  fmt.Sprintf("flaky-%d", s.n),
		Image: imgproc.NewGray(8, 8),
	}, nil
}

// TestSafeName pins the item-name guard behind every path the executor's
// results are written to.
func TestSafeName(t *testing.T) {
	for _, name := range []string{"", ".", "..", "a/b", `a\b`, "x\x00y", "ctl\x1f"} {
		if err := batch.SafeName(name); err == nil {
			t.Errorf("SafeName(%q) accepted", name)
		}
	}
	for _, name := range []string{"img-001", "a.b", "spaced name", "..a", "UPPER_case-07"} {
		if err := batch.SafeName(name); err != nil {
			t.Errorf("SafeName(%q) rejected: %v", name, err)
		}
	}
}

// TestFaultHookFailsItems pins the executor's fault-injection seam: a
// hook failing selected items turns exactly those into per-item errors
// without disturbing the rest of the stream or its ordering.
func TestFaultHookFailsItems(t *testing.T) {
	pipe := setup(t)
	batch.FaultHook = func(it batch.Item) error {
		if it.Index%2 == 1 {
			return errors.New("injected item fault")
		}
		return nil
	}
	defer func() { batch.FaultHook = nil }()

	const n = 6
	out, stats := collect(t, pipe, genSource(n), batch.Options{Workers: 3})
	if stats.Errors != n/2 {
		t.Fatalf("errors = %d, want %d", stats.Errors, n/2)
	}
	for i, r := range out {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if i%2 == 1 {
			if r.Err == nil || !strings.Contains(r.Err.Error(), "injected item fault") {
				t.Errorf("item %d: err = %v, want the injected fault", i, r.Err)
			}
		} else if r.Err != nil {
			t.Errorf("item %d failed: %v", i, r.Err)
		}
	}
}
