package jobs

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tdmagic/internal/obs"
)

// collectEvents drains a subscription until EOF, with a bounded deadline.
func collectEvents(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	var evs []Event
	for {
		ev, err := sub.Next(ctx)
		if errors.Is(err, io.EOF) {
			return evs
		}
		if err != nil {
			t.Fatalf("next: %v (have %d events)", err, len(evs))
		}
		evs = append(evs, ev)
	}
}

// TestEventsMidJob subscribes right after submission and follows the
// stream to EOF: the snapshot comes first, every item gets a claim and
// exactly one done, the terminal state event closes the stream, and the
// job's trace lands in the flight recorder keyed by the job ID.
func TestEventsMidJob(t *testing.T) {
	pipe := setup(t)
	cfg := fastCfg()
	flight := obs.NewRecorder(obs.RecorderConfig{})
	cfg.Flight = flight
	svc, _, _ := newService(t, pipe, cfg)
	defer closeService(t, svc)

	paths := writeCorpus(t, 4)
	// Hold every worker slot until the stream is attached: the scheduler
	// claims before it throttles, so without the gate it could claim
	// items ahead of the subscription.
	releaseSlots := holdSlots(svc)
	sn, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Events(sn.ID, true)
	releaseSlots()
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	evs := collectEvents(t, sub)

	if len(evs) == 0 || evs[0].Type != EventSnapshot {
		t.Fatalf("first event = %+v, want snapshot", evs[0])
	}
	if len(evs[0].Items) != 4 {
		t.Fatalf("snapshot items = %d, want 4 (withItems)", len(evs[0].Items))
	}
	claimed := map[string]int{}
	done := map[string]int{}
	var sawTerminal bool
	var lastSeq uint64
	for _, ev := range evs[1:] {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not increasing: %d after %d (%s)", ev.Seq, lastSeq, ev.Type)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case EventClaimed:
			claimed[ev.Item]++
		case EventDone:
			done[ev.Item]++
			if ev.Cached == nil {
				t.Errorf("item_done %s: Cached not set", ev.Item)
			}
		case EventTerminal:
			sawTerminal = true
			if ev.State != StateDone {
				t.Errorf("terminal state = %s (%s)", ev.State, ev.Error)
			}
			if ev.Stats == nil || ev.Stats.Done != 4 {
				t.Errorf("terminal stats = %+v", ev.Stats)
			}
		case EventTruncated:
			t.Errorf("unexpected truncation: dropped %d", ev.Dropped)
		}
	}
	if !sawTerminal {
		t.Error("no terminal state event")
	}
	for _, p := range pathSpecs(paths) {
		if claimed[p.Name] < 1 {
			t.Errorf("item %s: %d claim events, want >= 1", p.Name, claimed[p.Name])
		}
		if done[p.Name] != 1 {
			t.Errorf("item %s: %d done events, want exactly 1", p.Name, done[p.Name])
		}
	}

	// EOF means finish() ran: the trace capture precedes the hub close.
	dump := flight.Snapshot(obs.FlightFilter{RequestID: sn.ID})
	var trace, submitted, finished bool
	for _, lst := range [][]obs.FlightEntry{dump.Entries, dump.Pinned} {
		for _, e := range lst {
			switch {
			case e.Kind == "trace" && e.Name == "job":
				trace = true
				var items int
				for _, s := range e.Spans {
					if s.Name == "job.item" {
						items++
					}
				}
				if items != 4 {
					t.Errorf("job trace has %d job.item spans, want 4", items)
				}
			case e.Name == "job_submitted":
				submitted = true
			case e.Name == "job_done":
				finished = true
			}
		}
	}
	if !trace || !submitted || !finished {
		t.Errorf("flight recorder missing entries: trace=%v submitted=%v done=%v", trace, submitted, finished)
	}
}

// TestEventsRetry fails one item's first attempt and expects the stream
// to carry the retry (with attempt and backoff delay) before the
// eventual done.
func TestEventsRetry(t *testing.T) {
	pipe := setup(t)
	var failures atomic.Int64
	setFaultHook(t, func(f Fault) error {
		if f.Point == FaultItemStart && f.Item == "img-001" && f.Attempt == 1 {
			failures.Add(1)
			return errors.New("injected failure")
		}
		return nil
	})
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)

	sn, err := svc.Submit(pathSpecs(writeCorpus(t, 3)))
	if err != nil {
		t.Fatal(err)
	}
	sub, err := svc.Events(sn.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	var retried, doneAfter bool
	for _, ev := range collectEvents(t, sub) {
		switch ev.Type {
		case EventRetried:
			if ev.Item != "img-001" {
				t.Errorf("retry for %s, want img-001", ev.Item)
			}
			if ev.Attempt != 1 || ev.Error == "" || ev.DelayNS < 0 {
				t.Errorf("retry event = %+v", ev)
			}
			retried = true
		case EventDone:
			if ev.Item == "img-001" && retried {
				doneAfter = true
				if ev.Attempt != 2 {
					t.Errorf("done attempt = %d, want 2", ev.Attempt)
				}
			}
		}
	}
	if failures.Load() == 0 {
		t.Fatal("fault hook never fired")
	}
	if !retried || !doneAfter {
		t.Fatalf("retried=%v doneAfter=%v", retried, doneAfter)
	}
}

// TestEventsTerminalJob subscribes to an already finished job: the
// stream is exactly snapshot-then-EOF.
func TestEventsTerminalJob(t *testing.T) {
	pipe := setup(t)
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)

	sn, err := svc.Submit(pathSpecs(writeCorpus(t, 2)))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, svc, sn.ID)

	// The hub closes when the scheduler exits, which can trail the
	// terminal snapshot by one kick; poll briefly.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sub, err := svc.Events(sn.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		evs := collectEventsNoWait(t, sub)
		sub.Close()
		if len(evs) == 1 && evs[0].Type == EventSnapshot && evs[0].State == StateDone {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("events = %+v, want single terminal snapshot", evs)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// collectEventsNoWait drains buffered events and stops at EOF or a
// short timeout (for streams that may not close yet).
func collectEventsNoWait(t *testing.T, sub *Subscription) []Event {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	var evs []Event
	for {
		ev, err := sub.Next(ctx)
		if err != nil {
			return evs
		}
		evs = append(evs, ev)
	}
}

// TestEventsUnknownJob asks for a stream on a job that does not exist.
func TestEventsUnknownJob(t *testing.T) {
	pipe := setup(t)
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)
	if _, err := svc.Events("no-such-job", false); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// holdSlots fills the service's worker pool so nothing is claimed until
// the returned release runs.
func holdSlots(svc *Service) (release func()) {
	for i := 0; i < cap(svc.sem); i++ {
		svc.sem <- struct{}{}
	}
	return func() {
		for i := 0; i < cap(svc.sem); i++ {
			<-svc.sem
		}
	}
}

// TestEventTruncationMarker exercises the slow-consumer path at the
// subscriber level: overflow drops the newest events into a marker kept
// as the queue's last entry, so it lands exactly at the gap whether
// space reopens or the queue drains first.
func TestEventTruncationMarker(t *testing.T) {
	var h eventHub
	raw, _ := h.subscribe()
	sub := &Subscription{hub: &h, sub: raw}

	for i := 0; i < subBuffer+7; i++ {
		h.publish(Event{Type: EventCheckpoint, Job: "j", Index: i})
	}
	// Queue full: 7 newest dropped. Drain two, then publish again — the
	// marker must precede the fresh event.
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		ev, err := sub.Next(ctx)
		if err != nil || ev.Index != i {
			t.Fatalf("event %d: %+v, %v", i, ev, err)
		}
	}
	h.publish(Event{Type: EventCheckpoint, Job: "j"})
	var seen []Event
	for i := 0; i < subBuffer-2+2; i++ {
		ev, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, ev)
	}
	marker, last := seen[len(seen)-2], seen[len(seen)-1]
	if marker.Type != EventTruncated || marker.Dropped != 7 || marker.Job != "j" {
		t.Fatalf("marker = %+v, want truncated{7} for job j", marker)
	}
	if last.Type != EventCheckpoint {
		t.Fatalf("post-gap event = %+v, want checkpoint", last)
	}

	// One-slot variant: with exactly one slot reopened the marker itself
	// holds it, so the next event widens the gap rather than queueing
	// ahead of the marker; later events queue behind it.
	sub.Close()
	raw1, _ := h.subscribe()
	sub1 := &Subscription{hub: &h, sub: raw1}
	for i := 0; i < subBuffer+7; i++ {
		h.publish(Event{Type: EventCheckpoint, Job: "j", Index: i})
	}
	if _, err := sub1.Next(ctx); err != nil {
		t.Fatal(err)
	}
	h.publish(Event{Type: EventCheckpoint, Job: "j"})
	for i := 1; i < subBuffer; i++ {
		ev, err := sub1.Next(ctx)
		if err != nil || ev.Type != EventCheckpoint || ev.Index != i {
			t.Fatalf("event %d: %+v, %v, want checkpoint", i, ev, err)
		}
	}
	h.publish(Event{Type: EventCheckpoint, Job: "j"})
	if ev, err := sub1.Next(ctx); err != nil || ev.Type != EventTruncated || ev.Dropped != 8 || ev.Job != "j" {
		t.Fatalf("one-slot marker = %+v, %v, want truncated{8} for job j", ev, err)
	}
	if ev, err := sub1.Next(ctx); err != nil || ev.Type != EventCheckpoint {
		t.Fatalf("post-gap event = %+v, %v, want checkpoint", ev, err)
	}

	// Tail-gap variant: drop with nothing published after; the marker
	// is the last event before the stream ends.
	sub1.Close()
	raw2, _ := h.subscribe()
	sub2 := &Subscription{hub: &h, sub: raw2}
	for i := 0; i < subBuffer+3; i++ {
		h.publish(Event{Type: EventCheckpoint, Job: "j", Index: i})
	}
	for i := 0; i < subBuffer; i++ {
		if _, err := sub2.Next(ctx); err != nil {
			t.Fatal(err)
		}
	}
	ev, err := sub2.Next(ctx)
	if err != nil || ev.Type != EventTruncated || ev.Dropped != 3 || ev.Job != "j" {
		t.Fatalf("tail marker = %+v, %v, want truncated{3} for job j", ev, err)
	}
	h.close()
	if _, err := sub2.Next(ctx); !errors.Is(err, io.EOF) {
		t.Fatalf("after close: %v, want EOF", err)
	}
}

// TestSubmitterPropagation threads a request ID through SubmitRequest:
// it surfaces in snapshots but never reaches the results stream, whose
// bytes stay identical across submitters.
func TestSubmitterPropagation(t *testing.T) {
	pipe := setup(t)
	svc, _, _ := newService(t, pipe, fastCfg())
	defer closeService(t, svc)

	paths := writeCorpus(t, 2)
	sn, err := svc.SubmitRequest("req-abc123", pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	if sn.Submitter != "req-abc123" {
		t.Fatalf("submitter = %q, want req-abc123", sn.Submitter)
	}
	waitDone(t, svc, sn.ID)
	if lines := resultLines(t, svc, sn.ID); strings.Contains(string(lines), "req-abc123") {
		t.Fatal("request ID leaked into the results stream")
	}

	// Anonymous submissions keep an empty submitter.
	sn2, err := svc.Submit(pathSpecs(paths))
	if err != nil {
		t.Fatal(err)
	}
	if sn2.Submitter != "" {
		t.Fatalf("submitter = %q, want empty", sn2.Submitter)
	}
	waitDone(t, svc, sn2.ID)
}
