// Package sim implements the discrete-event simulation kernel used by the
// wireless network simulator: a virtual clock, an event heap with stable
// FIFO ordering among simultaneous events, and cancellable timers.
//
// The kernel is single-threaded by design. All protocol state machines run
// as event callbacks on one goroutine, which makes simulations fully
// deterministic for a given seed.
//
// Events live in a slab: fired and cancelled slots return to a free
// list and are recycled by later schedules, so steady-state timer churn
// (the MAC layer arms and cancels several timers per frame exchange)
// allocates nothing. The pending queue is an indexed 4-ary heap of
// inline (timestamp, schedule sequence, slot) keys: sifting compares
// keys in place and moves plain integers, so it dereferences no event
// and triggers no GC write barrier. The 4-ary shape halves the sift
// depth of a binary heap, and the slot's back-index lets Cancel remove
// an event immediately instead of leaving a tombstone to skip at pop
// time.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Scheduler owns the virtual clock and the pending event queue.
//
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now     time.Duration
	events  []event // slab of event slots, indexed by Timer.slot
	free    []int32 // recycled slot indices
	heap    []entry // 4-ary min-heap of live events
	seq     uint64
	stopped bool
}

// event is one slab slot. gen counts the slot's reincarnations, so a
// Timer handle from an earlier use of the slot is recognizably stale.
type event struct {
	fn    func()
	gen   uint64
	index int32 // heap position while pending
}

// entry is a heap element: the ordering key inline, plus the slab slot
// holding the callback.
type entry struct {
	at   time.Duration
	seq  uint64
	slot int32
}

// NewScheduler returns a scheduler with the clock at zero and no pending
// events.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration {
	return s.now
}

// Pending returns the number of scheduled events that have not yet fired
// or been cancelled. O(1): cancelled events leave the queue immediately.
func (s *Scheduler) Pending() int {
	return len(s.heap)
}

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// (t earlier than Now) is a programming error and panics. Events scheduled
// for the same instant fire in scheduling order.
func (s *Scheduler) At(t time.Duration, fn func()) Timer {
	if fn == nil {
		panic("sim: At called with nil callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v in the past (now %v)", t, s.now))
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.events))
		s.events = append(s.events, event{})
	}
	ev := &s.events[slot]
	ev.fn = fn
	s.push(entry{at: t, seq: s.seq, slot: slot})
	s.seq++
	return Timer{s: s, slot: slot, gen: ev.gen}
}

// After schedules fn to run d after the current virtual time. Negative
// durations panic.
func (s *Scheduler) After(d time.Duration, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// release returns a dequeued slot to the free list and hands back its
// callback. Bumping the generation invalidates every Timer handle still
// naming the slot.
func (s *Scheduler) release(slot int32) func() {
	ev := &s.events[slot]
	fn := ev.fn
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, slot)
	return fn
}

// fireMin pops the earliest event, advances the clock to it and runs it.
func (s *Scheduler) fireMin() {
	e := s.heap[0]
	s.removeAt(0)
	s.now = e.at
	s.release(e.slot)()
}

// Step fires the earliest pending event and advances the clock to its
// timestamp. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	s.fireMin()
	return true
}

// Run fires events in timestamp order until the queue drains or the next
// event lies beyond until. The clock finishes exactly at until (if events
// drained earlier the clock is still advanced to until).
func (s *Scheduler) Run(until time.Duration) {
	if until < s.now {
		panic(fmt.Sprintf("sim: Run until %v is before now %v", until, s.now))
	}
	s.stopped = false
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at <= until {
		s.fireMin()
	}
	if !s.stopped && s.now < until {
		s.now = until
	}
}

// Stop aborts a Run in progress after the current event callback returns.
func (s *Scheduler) Stop() {
	s.stopped = true
}

// Timer is a handle to a scheduled event that allows cancellation. The
// zero Timer is valid and behaves like an already-fired timer. Handles
// stay safe after their event fires and its slot is recycled: a
// generation counter distinguishes the original event from its
// reincarnations.
type Timer struct {
	s    *Scheduler
	slot int32
	gen  uint64
}

// Cancel prevents the timer's callback from firing. Cancelling an already
// fired or already cancelled timer is a no-op. It reports whether the
// callback was still pending.
func (t Timer) Cancel() bool {
	if !t.Pending() {
		return false
	}
	t.s.removeAt(int(t.s.events[t.slot].index))
	t.s.release(t.slot)
	return true
}

// Pending reports whether the timer's callback has neither fired nor been
// cancelled.
func (t Timer) Pending() bool {
	return t.s != nil && t.s.events[t.slot].gen == t.gen
}

// NewRand returns a deterministic pseudo-random source for the simulation.
// Every stochastic component of the simulator draws from a *rand.Rand so
// that runs are reproducible for a given seed.
func NewRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// less orders entries by (timestamp, schedule sequence): FIFO among
// simultaneous events.
func less(a, b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The heap is 4-ary: children of position i live at 4i+1..4i+4. Every
// placement of an entry records its position in the entry's slot.

func (s *Scheduler) place(i int, e entry) {
	s.heap[i] = e
	s.events[e.slot].index = int32(i)
}

func (s *Scheduler) push(e entry) {
	s.heap = append(s.heap, e)
	s.up(len(s.heap) - 1)
}

// removeAt deletes the entry at heap position i, preserving heap order.
func (s *Scheduler) removeAt(i int) {
	last := len(s.heap) - 1
	moved := s.heap[last]
	s.heap = s.heap[:last]
	if i < last {
		s.place(i, moved)
		s.down(i)
		s.up(i)
	}
}

func (s *Scheduler) up(i int) {
	e := s.heap[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := s.heap[parent]
		if !less(e, p) {
			break
		}
		s.place(i, p)
		i = parent
	}
	s.place(i, e)
}

func (s *Scheduler) down(i int) {
	n := len(s.heap)
	e := s.heap[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if less(s.heap[c], s.heap[best]) {
				best = c
			}
		}
		if !less(s.heap[best], e) {
			break
		}
		s.place(i, s.heap[best])
		i = best
	}
	s.place(i, e)
}
