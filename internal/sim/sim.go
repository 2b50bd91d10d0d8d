// Package sim implements the discrete-event simulation kernel used by the
// wireless network simulator: a virtual clock, an event queue with stable
// FIFO ordering among simultaneous events, and cancellable timers.
//
// The kernel is single-threaded by design. All protocol state machines run
// as event callbacks on one goroutine, which makes simulations fully
// deterministic for a given seed.
//
// Events live in a slab: fired and cancelled slots return to a free
// list and are recycled by later schedules, so steady-state timer churn
// (the MAC layer arms and cancels several timers per frame exchange)
// allocates nothing. The pending queue is two indexed 4-ary heaps of
// inline (timestamp, schedule sequence, slot) keys: sifting compares
// keys in place and moves plain integers, so it dereferences no event
// and triggers no GC write barrier. The 4-ary shape halves the sift
// depth of a binary heap, and the slot's back-index lets Cancel remove
// an event immediately instead of leaving a tombstone to skip at pop
// time.
//
// The two heaps are tiers split by distance from the clock. An event
// due within farHorizon of Now when it is scheduled goes on the near
// heap; a later one goes on the far heap and stays there until it
// fires or is cancelled. MAC timers (microseconds to milliseconds) and
// protocol periods (seconds) thus sift separately: a city with one
// standing period timer per node keeps thousands of far entries out of
// every MAC-timescale pop. The next event is the smaller of the two
// roots by the full (timestamp, sequence) key, and that key is unique,
// so firing order is exactly that of a single heap whatever the
// horizon: the split only decides where an entry is sifted.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// farHorizon splits the pending events into tiers: an event due more
// than farHorizon after Now when scheduled goes on the far heap. The
// frame path's timers are sub-millisecond to a few milliseconds (slots,
// SIFS and DIFS, frame airtimes of at most about 1 ms, exchange
// timeouts), while GMP measurement and agent periods are seconds. 10 ms
// sits between the two, so the near heap holds the frame path's timers
// and the far heap the standing period timers. Only the rare backoff
// drawn from a window widened by retries reaches past it (1023 slots of
// 20 µs is about 20 ms). On the 2000-node distributed city the tiers
// average about 120 near and 2060 far entries, and under 1 % of pops
// come from the far tier; a 100-ms horizon held about 180 near entries
// and measured a few percent slower. The value affects only speed,
// never firing order.
const farHorizon = 10 * time.Millisecond

// Tier indices into Scheduler.heaps.
const (
	nearTier = 0
	farTier  = 1
)

// Scheduler owns the virtual clock and the pending event queue.
//
// The zero value is not usable; construct with NewScheduler.
type Scheduler struct {
	now    time.Duration
	events []event // slab of event slots, indexed by Timer.slot
	free   []int32 // recycled slot indices
	// heaps are the near and far tiers: 4-ary min-heaps of live events.
	heaps [2][]entry
	// horizon is farHorizon; tests vary it to check that the tier split
	// never changes firing order.
	horizon time.Duration
	seq     uint64
	stopped bool
}

// event is one slab slot. gen counts the slot's reincarnations, so a
// Timer handle from an earlier use of the slot is recognizably stale.
type event struct {
	fn    func()
	gen   uint64
	index int32 // heap position while pending
	tier  uint8 // heap holding the event while pending
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
	return &Scheduler{horizon: farHorizon}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration {
	return s.now
}

// Pending returns the number of scheduled events that have not yet fired
// or been cancelled. O(1): cancelled events leave the queue immediately.
func (s *Scheduler) Pending() int {
	return len(s.heaps[nearTier]) + len(s.heaps[farTier])
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
	k := nearTier
	if t-s.now > s.horizon {
		k = farTier
	}
	ev.tier = uint8(k)
	s.push(k, entry{at: t, seq: s.seq, slot: slot})
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

// next returns the tier whose root is the earliest pending event by
// (timestamp, sequence), and false when nothing is pending.
func (s *Scheduler) next() (int, bool) {
	near, far := s.heaps[nearTier], s.heaps[farTier]
	switch {
	case len(far) == 0:
		return nearTier, len(near) > 0
	case len(near) == 0 || less(far[0], near[0]):
		return farTier, true
	}
	return nearTier, true
}

// fireMin pops the root of tier k, which next chose as the earliest
// event, advances the clock to it and runs it.
func (s *Scheduler) fireMin(k int) {
	e := s.heaps[k][0]
	s.removeAt(k, 0)
	s.now = e.at
	s.release(e.slot)()
}

// Step fires the earliest pending event and advances the clock to its
// timestamp. It returns false when no events remain.
func (s *Scheduler) Step() bool {
	k, ok := s.next()
	if ok {
		s.fireMin(k)
	}
	return ok
}

// Run fires events in timestamp order until the queue drains or the next
// event lies beyond until. The clock finishes exactly at until (if events
// drained earlier the clock is still advanced to until).
func (s *Scheduler) Run(until time.Duration) {
	if until < s.now {
		panic(fmt.Sprintf("sim: Run until %v is before now %v", until, s.now))
	}
	s.stopped = false
	for !s.stopped {
		k, ok := s.next()
		if !ok || s.heaps[k][0].at > until {
			break
		}
		s.fireMin(k)
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
	ev := &t.s.events[t.slot]
	t.s.removeAt(int(ev.tier), int(ev.index))
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

// Each tier is a 4-ary heap: children of position i live at 4i+1..4i+4.
// Every placement of an entry records its position in the entry's slot;
// the slot's tier is set once, when the event is scheduled.

func (s *Scheduler) place(h []entry, i int, e entry) {
	h[i] = e
	s.events[e.slot].index = int32(i)
}

func (s *Scheduler) push(k int, e entry) {
	s.heaps[k] = append(s.heaps[k], e)
	s.up(s.heaps[k], len(s.heaps[k])-1)
}

// removeAt deletes the entry at position i of tier k, preserving heap
// order.
func (s *Scheduler) removeAt(k, i int) {
	h := s.heaps[k]
	last := len(h) - 1
	moved := h[last]
	h = h[:last]
	s.heaps[k] = h
	if i < last {
		s.place(h, i, moved)
		s.down(h, i)
		s.up(h, i)
	}
}

func (s *Scheduler) up(h []entry, i int) {
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !less(e, p) {
			break
		}
		s.place(h, i, p)
		i = parent
	}
	s.place(h, i, e)
}

func (s *Scheduler) down(h []entry, i int) {
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := min(first+4, n)
		for c := first + 1; c < end; c++ {
			if less(h[c], h[best]) {
				best = c
			}
		}
		if !less(h[best], e) {
			break
		}
		s.place(h, i, h[best])
		i = best
	}
	s.place(h, i, e)
}
