// Package parallel provides the deterministic fan-out primitives shared by
// the training pipeline (tdgen, eval, sed, nn): an ordered parallel for-loop
// whose observable results depend only on the index each task writes to, and
// a splittable seed derivation so independently generated work items draw
// from reproducible random streams regardless of how many workers run them.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Resolve maps a Workers knob to a concrete worker count: values <= 0 mean
// "use every available core" (GOMAXPROCS).
func Resolve(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// For runs fn(i) for every i in [0, n), fanning the calls out over workers
// goroutines. Tasks are handed out in index order from a shared counter; fn
// must confine its writes to per-index state (e.g. out[i]) so the result is
// identical for any worker count. workers <= 1 runs inline with no
// goroutines.
func For(workers, n int, fn func(i int)) {
	workers = Resolve(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// ForErr runs fn(i) for every i in [0, n) in parallel and returns the error
// of the lowest failing index (so the reported error does not depend on
// scheduling). All tasks run even when one fails.
func ForErr(workers, n int, fn func(i int) error) error {
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Seed derives a decorrelated child seed from a master seed and a stream
// index using the splitmix64 finalizer, so per-item random streams are
// reproducible and independent of worker count or completion order.
func Seed(master, stream int64) int64 {
	z := uint64(master)*0x9E3779B97F4A7C15 + uint64(stream) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}
