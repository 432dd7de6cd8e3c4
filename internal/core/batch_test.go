package core

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"tdmagic/internal/imgproc"
)

// TestBatchPanicRecovery injects a panic into one item of a batch and
// checks the failure is isolated: the poisoned picture reports the panic
// (with a stack) in its BatchResult.Err while every other picture still
// translates normally and results stay in input order.
func TestBatchPanicRecovery(t *testing.T) {
	pipe, val := trainSmall(t)
	imgs := make([]*imgproc.Gray, len(val))
	for i, s := range val {
		imgs[i] = s.Image
	}
	const poisoned = 2
	batchHook = func(index int) {
		if index == poisoned {
			panic("injected stage failure")
		}
	}
	defer func() { batchHook = nil }()

	results := pipe.TranslateAllCtx(context.Background(), imgs, BatchOptions{Workers: 3})
	if len(results) != len(imgs) {
		t.Fatalf("got %d results for %d pictures", len(results), len(imgs))
	}
	for i, r := range results {
		if r.Index != i {
			t.Errorf("result %d carries index %d", i, r.Index)
		}
		if i == poisoned {
			if r.Err == nil {
				t.Fatal("poisoned item reported no error")
			}
			if !strings.Contains(r.Err.Error(), "injected stage failure") {
				t.Errorf("panic value missing from error: %v", r.Err)
			}
			if !strings.Contains(r.Err.Error(), "batch_test.go") {
				t.Errorf("stack trace missing from error: %.120s", r.Err.Error())
			}
			if r.SPO != nil || r.Rep != nil {
				t.Error("poisoned item returned partial outputs alongside the panic")
			}
			continue
		}
		if r.Err != nil {
			t.Errorf("healthy item %d failed: %v", i, r.Err)
		}
		if r.SPO == nil || r.Rep == nil {
			t.Errorf("healthy item %d missing outputs", i)
		}
	}
}

// TestBatchPerItemTimeout stalls one item past the per-picture deadline
// and checks it surfaces context.DeadlineExceeded without delaying or
// failing its neighbours.
func TestBatchPerItemTimeout(t *testing.T) {
	pipe, val := trainSmall(t)
	imgs := make([]*imgproc.Gray, 3)
	for i := range imgs {
		imgs[i] = val[i].Image
	}
	// The deadline applies to every item, so it must be generous enough
	// that healthy translations finish inside it even under -race, while
	// the stalled item sleeps safely past it.
	const timeout = 5 * time.Second
	const stalled = 1
	batchHook = func(index int) {
		if index == stalled {
			time.Sleep(timeout + 500*time.Millisecond)
		}
	}
	defer func() { batchHook = nil }()

	results := pipe.TranslateAllCtx(context.Background(), imgs,
		BatchOptions{Workers: 3, Timeout: timeout})
	if !errors.Is(results[stalled].Err, context.DeadlineExceeded) {
		t.Errorf("stalled item err = %v, want deadline exceeded", results[stalled].Err)
	}
	for i, r := range results {
		if i == stalled {
			continue
		}
		if r.Err != nil {
			t.Errorf("item %d caught the neighbour's deadline: %v", i, r.Err)
		}
	}
}

// TestBatchCtxCancellation cancels the batch-wide context up front; every
// item must report the cancellation rather than run.
func TestBatchCtxCancellation(t *testing.T) {
	pipe, val := trainSmall(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results := pipe.TranslateAllCtx(ctx, []*imgproc.Gray{val[0].Image}, BatchOptions{Workers: 1})
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", results[0].Err)
	}
}
