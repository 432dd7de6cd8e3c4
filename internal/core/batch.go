package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"time"

	"tdmagic/internal/imgproc"
	"tdmagic/internal/parallel"
	"tdmagic/internal/spo"
)

// BatchResult is one picture's outcome in a batch translation.
type BatchResult struct {
	Index int
	SPO   *spo.SPO
	Rep   *Report
	Err   error
}

// BatchOptions configures a batch translation.
type BatchOptions struct {
	// Workers is the fan-out width (<= 0 means GOMAXPROCS).
	Workers int
	// Timeout is the per-picture deadline; a translation that exceeds it
	// is cancelled cooperatively and returns context.DeadlineExceeded in
	// its BatchResult.Err. Zero means no deadline.
	Timeout time.Duration
}

// batchHook, when non-nil, runs at the start of every item translation.
// It exists purely as a fault-injection seam for the panic-recovery
// regression tests.
var batchHook func(index int)

// TranslateAll translates many pictures concurrently, fanning the work out
// over workers goroutines (default: GOMAXPROCS). The pipeline is
// read-only during translation, so a single trained instance serves all
// workers. Results are returned in input order.
func (p *Pipeline) TranslateAll(imgs []*imgproc.Gray, workers int) []BatchResult {
	return p.TranslateAllCtx(context.Background(), imgs, BatchOptions{Workers: workers})
}

// TranslateAllCtx is TranslateAll with per-item fault isolation: a panic
// inside one picture's translation is recovered into that picture's
// BatchResult.Err (with the stack), and opts.Timeout bounds each
// picture's wall-clock via cooperative cancellation in the perception
// stages — one pathological picture can neither hang nor kill the batch.
// Cancelling ctx stops the whole batch; unstarted items report ctx's
// error. A one-worker call runs inline on the caller's goroutine.
func (p *Pipeline) TranslateAllCtx(ctx context.Context, imgs []*imgproc.Gray, opts BatchOptions) []BatchResult {
	results := make([]BatchResult, len(imgs))
	parallel.For(opts.Workers, len(imgs), func(i int) {
		results[i] = p.translateItem(ctx, i, imgs[i], opts.Timeout)
	})
	return results
}

// translateItem runs one batch item under its deadline and panic guard.
func (p *Pipeline) translateItem(ctx context.Context, i int, img *imgproc.Gray, timeout time.Duration) (res BatchResult) {
	res = BatchResult{Index: i}
	defer func() {
		if r := recover(); r != nil {
			res.SPO, res.Rep = nil, nil
			res.Err = fmt.Errorf("core: translate panicked: %v\n%s", r, debug.Stack())
			if p.Metrics != nil {
				p.Metrics.observeBatchPanic()
			}
		}
	}()
	itemCtx := ctx
	if timeout > 0 {
		var cancel context.CancelFunc
		itemCtx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	if batchHook != nil {
		batchHook(i)
	}
	res.SPO, res.Rep, res.Err = p.TranslateContext(itemCtx, img)
	return res
}
