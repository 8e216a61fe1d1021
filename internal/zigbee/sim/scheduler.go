// Package sim is the virtual-time discrete-event simulator behind the
// campaign-scale Zigbee scenarios: a min-heap of timed events driven by
// a virtual clock, node actors running 802.15.4 MAC state machines
// (beaconing, association, CSMA-CA, acknowledgements, PAN-ID conflict
// resolution), and a shared per-channel medium whose frame-level
// deliveries come from a frame- or symbol-tier radio.Channel. A
// 2-second sensor cadence costs nanoseconds of wall time per period
// instead of 2 seconds, so thousand-node meshes simulate minutes of
// traffic per wall-clock second.
//
// Determinism is the load-bearing property: every random draw flows from
// splitmix64-derived per-node streams (the Monte-Carlo runner's seed
// discipline), event ties break on insertion order, and deliveries never
// touch a shared random stream — so two runs with the same seed produce
// byte-identical capture sequences at any event-batch size, which is
// what lets capture digests act as regression oracles.
//
// zigbee.LiveNetwork rides the same event core: its real-time reporting
// loop is a Scheduler driven by a Pacer that sleeps until each event's
// wall deadline, making real-time operation a pacing policy rather than
// a separate code path.
package sim

import (
	"fmt"
	"time"
)

// event is one scheduled callback. seq is the insertion sequence number:
// events at the same virtual instant execute in scheduling order, which
// makes the pop order total and the simulation deterministic regardless
// of heap internals.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// before is the heap ordering: earlier time first, earlier insertion
// breaking ties.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Scheduler is the virtual-time event queue: a hand-rolled binary
// min-heap of events plus the virtual clock, which only ever moves
// forward to the timestamp of the event being executed. It is not safe
// for concurrent use — the simulation is single-threaded by design and
// concurrency lives at the observer boundary (see Network.Observe).
type Scheduler struct {
	heap []event
	now  time.Duration
	seq  uint64

	executed uint64
	maxDepth int

	// maxLag is the high-water mark of how far behind its deadline an
	// event executed, in wall time. The virtual driver never lags (the
	// clock jumps to each event); the Pacer records real lateness here.
	maxLag time.Duration
}

// NewScheduler returns an empty scheduler at virtual time zero.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return len(s.heap) }

// Executed returns how many events have run.
func (s *Scheduler) Executed() uint64 { return s.executed }

// MaxDepth returns the heap-depth high-water mark.
func (s *Scheduler) MaxDepth() int { return s.maxDepth }

// MaxLag returns the worst observed wall-time lateness of an event
// (always zero under the virtual driver).
func (s *Scheduler) MaxLag() time.Duration { return s.maxLag }

// noteLag records a wall-time execution lateness (called by the Pacer).
// It reports whether the lag is a new high-water mark.
func (s *Scheduler) noteLag(lag time.Duration) bool {
	if lag > s.maxLag {
		s.maxLag = lag
		return true
	}
	return false
}

// At schedules fn at virtual time t. Scheduling in the past is clamped
// to now: the event runs next, after already-pending events at the same
// instant.
func (s *Scheduler) At(t time.Duration, fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if t < s.now {
		t = s.now
	}
	s.seq++
	s.heap = append(s.heap, event{at: t, seq: s.seq, fn: fn})
	s.up(len(s.heap) - 1)
	if len(s.heap) > s.maxDepth {
		s.maxDepth = len(s.heap)
	}
}

// After schedules fn d from now; negative d is clamped to now.
func (s *Scheduler) After(d time.Duration, fn func()) {
	s.At(s.now+d, fn)
}

// peek returns the next event without popping; ok is false when the
// queue is empty.
func (s *Scheduler) peek() (event, bool) {
	if len(s.heap) == 0 {
		return event{}, false
	}
	return s.heap[0], true
}

// NextAt returns the virtual deadline of the next pending event; ok is
// false when the queue is empty.
func (s *Scheduler) NextAt() (time.Duration, bool) {
	ev, ok := s.peek()
	return ev.at, ok
}

// Step pops and executes the next event, advancing the clock to its
// timestamp. It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	ev, ok := s.peek()
	if !ok {
		return false
	}
	s.pop()
	s.now = ev.at
	s.executed++
	ev.fn()
	return true
}

// RunUntil executes every event due at or before t, then advances the
// clock to t. It returns the number of events executed. Because the
// clock only ever moves to each event's own timestamp before its
// callback runs, splitting one RunUntil(t) into any sequence of smaller
// advances executes the identical event sequence — the batch-size
// independence the determinism tests pin down.
func (s *Scheduler) RunUntil(t time.Duration) uint64 {
	if t < s.now {
		return 0
	}
	var n uint64
	for {
		ev, ok := s.peek()
		if !ok || ev.at > t {
			break
		}
		s.Step()
		n++
	}
	s.now = t
	return n
}

// Drain discards all pending events (shutdown path).
func (s *Scheduler) Drain() {
	s.heap = s.heap[:0]
}

// String summarises the scheduler state for diagnostics.
func (s *Scheduler) String() string {
	return fmt.Sprintf("sim: t=%v pending=%d executed=%d depth_max=%d",
		s.now, len(s.heap), s.executed, s.maxDepth)
}

// up restores the heap property from index i towards the root.
func (s *Scheduler) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if s.heap[parent].before(s.heap[i]) {
			return
		}
		s.heap[parent], s.heap[i] = s.heap[i], s.heap[parent]
		i = parent
	}
}

// pop removes the root, restoring the heap property downwards.
func (s *Scheduler) pop() {
	last := len(s.heap) - 1
	s.heap[0] = s.heap[last]
	s.heap[last] = event{} // release the callback
	s.heap = s.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < last && s.heap[l].before(s.heap[smallest]) {
			smallest = l
		}
		if r < last && s.heap[r].before(s.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		s.heap[i], s.heap[smallest] = s.heap[smallest], s.heap[i]
		i = smallest
	}
}
