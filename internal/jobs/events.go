package jobs

import (
	"context"
	"io"
	"sync"
	"time"
)

// Live lifecycle event streaming. Every job fans its state transitions
// out to any number of subscribers through per-subscriber bounded
// queues: a late subscriber gets a consistent snapshot first (built
// and registered atomically under the job mutex, which every publisher
// holds), then tails the live feed; a slow subscriber loses the newest
// events and sees an in-band "truncated" marker exactly where the gap
// sits. Memory is bounded per subscriber and zero with none attached.
//
// The publish invariant: the hub is published to only by job.emit,
// which runs with j.mu held. That makes snapshot+subscribe atomic
// without a second ordering mechanism, and means the hub mutex is always
// acquired inside j.mu — one lock order, no deadlock (an earlier logging
// deadlock was exactly a violation of this kind of discipline).

// EventType enumerates the lifecycle event kinds.
type EventType string

// Lifecycle event types, in rough emission order.
const (
	EventSnapshot    EventType = "snapshot"         // first line to every subscriber
	EventSubmitted   EventType = "submitted"        // job accepted and journaled
	EventResumed     EventType = "resumed"          // job picked up after a restart
	EventClaimed     EventType = "item_claimed"     // item handed to a worker
	EventDone        EventType = "item_done"        // item completed (Cached: store hit/miss)
	EventRetried     EventType = "item_retried"     // failed attempt requeued under backoff
	EventQuarantined EventType = "item_quarantined" // attempts exhausted, item parked
	EventCheckpoint  EventType = "checkpoint"       // journal generation committed
	EventTerminal    EventType = "state"            // job reached a terminal state
	EventTruncated   EventType = "truncated"        // subscriber lost Dropped events here
)

// Event is one NDJSON line of GET /v1/jobs/{id}/events. Item-scoped
// fields are set only on item events; Stats only on snapshot,
// submitted, resumed and terminal events.
type Event struct {
	Seq    uint64    `json:"seq"`
	TimeNS int64     `json:"time_unix_ns"`
	Type   EventType `json:"type"`
	Job    string    `json:"job"`

	Item    string `json:"item,omitempty"`
	Index   int    `json:"index,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Cached  *bool  `json:"cached,omitempty"`
	Resumed bool   `json:"resumed,omitempty"` // item ran in a crash-resumed job
	DelayNS int64  `json:"delay_ns,omitempty"`

	State   State        `json:"state,omitempty"`
	Error   string       `json:"error,omitempty"`
	Stats   *Stats       `json:"stats,omitempty"`
	Items   []ItemStatus `json:"items,omitempty"`
	Dropped uint64       `json:"dropped,omitempty"`
}

// subBuffer bounds each subscriber's queue. A job's busiest stretch
// emits a handful of events per item; 1024 rides out a multi-second
// consumer stall before truncation.
const subBuffer = 1024

// eventHub fans a job's events out to its subscribers.
type eventHub struct {
	mu     sync.Mutex
	seq    uint64
	subs   map[*subscriber]struct{}
	closed bool
}

type subscriber struct {
	mu     sync.Mutex
	buf    []Event
	closed bool
	notify chan struct{}
}

// publish stamps and fans out one event. Callers hold j.mu (see the
// package invariant above); the hub lock nests inside it.
func (h *eventHub) publish(ev Event) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.seq++
	ev.Seq = h.seq
	ev.TimeNS = time.Now().UnixNano()
	for sub := range h.subs {
		sub.push(ev)
	}
	h.mu.Unlock()
}

// subscribe registers a fresh subscriber and returns it with the hub's
// current sequence number, so the caller can stamp its snapshot as
// "everything up to seq". Subscribing to a closed hub yields a
// subscriber that EOFs after draining — a terminal job's stream is
// snapshot-then-EOF.
func (h *eventHub) subscribe() (*subscriber, uint64) {
	sub := &subscriber{notify: make(chan struct{}, 1)}
	h.mu.Lock()
	if h.closed {
		sub.closed = true
	} else {
		if h.subs == nil {
			h.subs = map[*subscriber]struct{}{}
		}
		h.subs[sub] = struct{}{}
	}
	seq := h.seq
	h.mu.Unlock()
	return sub, seq
}

func (h *eventHub) unsubscribe(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
	sub.mu.Lock()
	sub.closed = true
	sub.mu.Unlock()
	sub.wake()
}

// close ends the stream for every subscriber after their queued events
// drain. Publishing after close is a silent no-op.
func (h *eventHub) close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := make([]*subscriber, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
	}
	h.subs = nil
	h.mu.Unlock()
	for _, sub := range subs {
		sub.mu.Lock()
		sub.closed = true
		sub.mu.Unlock()
		sub.wake()
	}
}

func (b *subscriber) wake() {
	select {
	case b.notify <- struct{}{}:
	default:
	}
}

// push enqueues one event, dropping the newest when the queue is full.
// The first drop appends an in-band truncation marker as the queue's
// last entry and later drops count into it; once space reopens, newer
// events queue behind it, so a consumer sees
// [...kept events, truncated{n}, ...newer events] in true order. The
// queue holds at most subBuffer entries plus that one trailing marker.
func (b *subscriber) push(ev Event) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	switch n := len(b.buf); {
	case n < subBuffer:
		b.buf = append(b.buf, ev)
	case b.buf[n-1].Type == EventTruncated:
		b.buf[n-1].Dropped++
	default:
		b.buf = append(b.buf, Event{
			Type: EventTruncated, Job: ev.Job, Dropped: 1,
			TimeNS: ev.TimeNS,
		})
	}
	b.mu.Unlock()
	b.wake()
}

// Subscription is one live event stream, produced by Service.Events.
// The first event is always the job snapshot; Close releases the
// subscriber (safe to call at any time, including concurrently with
// Next).
type Subscription struct {
	hub *eventHub
	sub *subscriber
}

// Next returns the next event, blocking until one arrives, ctx ends
// (ctx.Err()), or the job's stream closes after draining (io.EOF).
func (su *Subscription) Next(ctx context.Context) (Event, error) {
	b := su.sub
	for {
		b.mu.Lock()
		if len(b.buf) > 0 {
			ev := b.buf[0]
			b.buf = b.buf[1:]
			if len(b.buf) == 0 {
				b.buf = nil // release the drained backing array
			}
			b.mu.Unlock()
			return ev, nil
		}
		closed := b.closed
		b.mu.Unlock()
		if closed {
			return Event{}, io.EOF
		}
		select {
		case <-b.notify:
		case <-ctx.Done():
			return Event{}, ctx.Err()
		}
	}
}

// Close releases the subscription.
func (su *Subscription) Close() { su.hub.unsubscribe(su.sub) }

// Events subscribes to a job's live lifecycle stream. The returned
// subscription's first Next yields a snapshot event (with per-item
// states when withItems is set) consistent with the tail that follows:
// registration and snapshot happen atomically under the job lock, so no
// event is missed or duplicated across the boundary. Works on live,
// draining and terminal jobs — a terminal job streams its snapshot and
// then EOF.
func (s *Service) Events(id string, withItems bool) (*Subscription, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, ErrNotFound
	}
	j.mu.Lock()
	sub, seq := j.hub.subscribe()
	sn := j.snapshotLocked(withItems)
	first := Event{
		Seq: seq, TimeNS: time.Now().UnixNano(),
		Type: EventSnapshot, Job: j.id,
		State: sn.State, Error: sn.Error,
		Stats: &sn.Stats, Items: sn.Items,
	}
	// Seed the snapshot into the queue before releasing j.mu: every
	// publisher holds j.mu, so no tail event can slip in ahead of it,
	// and push keeps FIFO order afterwards.
	sub.mu.Lock()
	sub.buf = append(sub.buf, first)
	sub.mu.Unlock()
	j.mu.Unlock()
	sub.wake()
	return &Subscription{hub: &j.hub, sub: sub}, nil
}
