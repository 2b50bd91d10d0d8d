package sim

import (
	"math/rand"
	"testing"
	"time"
)

// TestPendingMatchesBruteForce drives the scheduler through a random
// interleaving of schedules, cancellations, and clock advances, checking
// Pending() after every operation against an independently maintained
// count of live events.
func TestPendingMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var live []Timer // timers believed pending
		fired := 0

		check := func(op string) {
			// Brute force: a timer is pending iff its handle says so, and
			// the scheduler's count must equal the number of such handles.
			n := 0
			for _, tm := range live {
				if tm.Pending() {
					n++
				}
			}
			if got := s.Pending(); got != n {
				t.Fatalf("seed %d after %s: Pending() = %d, brute force count = %d", seed, op, got, n)
			}
		}

		for op := 0; op < 500; op++ {
			switch r := rng.Intn(10); {
			case r < 5: // schedule
				live = append(live, s.After(time.Duration(rng.Intn(100))*time.Microsecond, func() { fired++ }))
				check("schedule")
			case r < 8: // cancel a random timer (possibly already dead)
				if len(live) > 0 {
					tm := live[rng.Intn(len(live))]
					was := tm.Pending()
					if got := tm.Cancel(); got != was {
						t.Fatalf("seed %d: Cancel() = %v on timer with Pending() = %v", seed, got, was)
					}
					check("cancel")
				}
			default: // advance the clock, firing some events
				s.Run(s.Now() + time.Duration(rng.Intn(50))*time.Microsecond)
				check("run")
			}
		}
		s.Run(s.Now() + time.Millisecond)
		check("drain")
		if s.Pending() != 0 {
			t.Fatalf("seed %d: queue not drained: %d left", seed, s.Pending())
		}
	}
}

// TestSchedulerSteadyStateAllocs pins the event-pool behavior: once the
// free list is primed, the arm/fire and arm/cancel cycles allocate
// nothing.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}

	// Prime the pool.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	s.Run(s.Now() + time.Millisecond)

	if avg := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			s.After(time.Duration(i)*time.Microsecond, fn)
		}
		s.Run(s.Now() + time.Millisecond)
	}); avg > 0 {
		t.Errorf("arm/fire cycle allocates %.1f objects per run, want 0", avg)
	}

	if avg := testing.AllocsPerRun(200, func() {
		var tms [32]Timer
		for i := range tms {
			tms[i] = s.After(time.Duration(i+1)*time.Microsecond, fn)
		}
		for _, tm := range tms {
			tm.Cancel()
		}
	}); avg > 0 {
		t.Errorf("arm/cancel cycle allocates %.1f objects per run, want 0", avg)
	}
}

// BenchmarkSchedulerTimers measures the MAC-like timer churn pattern:
// arm a handful of timers, cancel some, fire the rest.
func BenchmarkSchedulerTimers(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var tms [4]Timer
		for j := range tms {
			tms[j] = s.After(time.Duration(j+1)*time.Microsecond, fn)
		}
		tms[1].Cancel()
		tms[3].Cancel()
		s.Run(s.Now() + 10*time.Microsecond)
	}
}

// TestSchedulerMatchesReference is a differential test of the slab heap
// against a brute-force reference. Random At/After/Cancel/Run/Step
// sequences, with timestamps drawn from a handful of values so most
// events tie, are mirrored into a flat list of records. Every callback
// checks that it is the reference's minimum by (at, seq) among pending
// records; callbacks sometimes schedule further events, including at
// the current instant. After every operation each handle ever issued
// must report Pending exactly when its record is pending, so a stale
// handle whose slot has been reused neither cancels nor reports the
// slot's new occupant.
func TestSchedulerMatchesReference(t *testing.T) {
	type record struct {
		at      time.Duration
		seq     int
		pending bool
		tm      Timer
	}
	reused := 0
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		var recs []*record
		fired := 0

		var schedule func(at time.Duration, relative bool)
		schedule = func(at time.Duration, relative bool) {
			r := &record{at: at, seq: len(recs), pending: true}
			recs = append(recs, r)
			fn := func() {
				for _, o := range recs {
					if o.pending && (o.at < r.at || o.at == r.at && o.seq < r.seq) {
						t.Fatalf("seed %d: fired #%d (at %v) before pending #%d (at %v)", seed, r.seq, r.at, o.seq, o.at)
					}
				}
				if !r.pending || s.Now() != r.at {
					t.Fatalf("seed %d: #%d fired at %v, pending=%v, scheduled for %v", seed, r.seq, s.Now(), r.pending, r.at)
				}
				r.pending = false
				fired++
				if rng.Intn(4) == 0 {
					schedule(s.Now()+time.Duration(rng.Intn(3))*time.Microsecond, false)
				}
			}
			if relative {
				r.tm = s.After(at-s.Now(), fn)
			} else {
				r.tm = s.At(at, fn)
			}
		}
		check := func(op string) {
			live := 0
			for _, r := range recs {
				if r.tm.Pending() != r.pending {
					t.Fatalf("seed %d after %s: handle #%d Pending() = %v, reference %v", seed, op, r.seq, r.tm.Pending(), r.pending)
				}
				if r.pending {
					live++
				}
			}
			if s.Pending() != live {
				t.Fatalf("seed %d after %s: Pending() = %d, reference %d", seed, op, s.Pending(), live)
			}
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(12); {
			case r < 5:
				// Mostly ties; sometimes a wide spread, so the heap grows
				// deep enough for removals to need sifting either way.
				spread := []int{4, 4, 64}[rng.Intn(3)]
				schedule(s.Now()+time.Duration(rng.Intn(spread))*time.Microsecond, r < 2)
				check("schedule")
			case r < 8:
				if len(recs) > 0 {
					rec := recs[rng.Intn(len(recs))]
					if got := rec.tm.Cancel(); got != rec.pending {
						t.Fatalf("seed %d: Cancel() of #%d = %v, reference pending %v", seed, rec.seq, got, rec.pending)
					}
					rec.pending = false
					check("cancel")
				}
			case r < 10:
				until := s.Now() + time.Duration(rng.Intn(3))*time.Microsecond
				s.Run(until)
				if s.Now() != until {
					t.Fatalf("seed %d: Run(%v) left Now() = %v", seed, until, s.Now())
				}
				for _, rec := range recs {
					if rec.pending && rec.at <= until {
						t.Fatalf("seed %d: #%d at %v still pending after Run(%v)", seed, rec.seq, rec.at, until)
					}
				}
				check("run")
			default:
				want, before := s.Pending(), fired
				if got := s.Step(); got != (want > 0) || fired-before != min(want, 1) {
					t.Fatalf("seed %d: Step() = %v firing %d events with %d pending", seed, got, fired-before, want)
				}
				check("step")
			}
		}
		for _, a := range recs {
			for _, b := range recs {
				if a != b && a.tm.slot == b.tm.slot && !a.pending && b.pending {
					reused++
				}
			}
		}
		s.Run(s.Now() + time.Millisecond)
		check("drain")
	}
	if reused == 0 {
		t.Fatal("no stale handle shared a slot with a live event; the test exercised no reuse")
	}
}
