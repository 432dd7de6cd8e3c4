package jobs

import "errors"

// FaultPoint names a seam where FaultHook is consulted.
type FaultPoint string

const (
	// FaultItemStart fires at the start of every item attempt, before the
	// picture is touched. The hook's return controls the attempt: nil
	// proceeds normally, ErrPanic panics inside the worker (exercising
	// the recovery path), ErrStall blocks the attempt until its deadline
	// or cancellation, and any other error fails the attempt immediately
	// (a decode error, a flaky filesystem).
	FaultItemStart FaultPoint = "item.start"
	// FaultJournal fires before every journal checkpoint; a non-nil
	// return fails the write (a full or read-only disk). The service
	// keeps running on in-memory state and retries at the next
	// transition.
	FaultJournal FaultPoint = "journal"
)

// Fault describes one hook invocation.
type Fault struct {
	Point   FaultPoint
	Job     string
	Item    string
	Attempt int
}

// FaultHook, when non-nil, is consulted at every fault point. It is the
// build-tag-free fault-injection seam the crash-safety tests drive:
// decode errors, worker panics, deadline stalls and journal write
// failures are all injected here, with no test-only code in the
// production paths. Set it only while no service is running.
var FaultHook func(Fault) error

// ErrPanic, returned from FaultHook at FaultItemStart, makes the worker
// panic; the attempt must be recovered and counted as a failure.
var ErrPanic = errors.New("jobs: injected panic")

// ErrStall, returned from FaultHook at FaultItemStart, blocks the
// attempt until its per-item deadline or the job's cancellation —
// deterministic stand-in for a translation that hangs.
var ErrStall = errors.New("jobs: injected stall")
