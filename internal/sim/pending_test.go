package sim

import (
	"math/rand"
	"slices"
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
// nothing, on either tier, with standing far timers in the queue.
func TestSchedulerSteadyStateAllocs(t *testing.T) {
	s := NewScheduler()
	fn := func() {}

	// Standing period timers on the far tier, as a city's agents keep.
	var standing [256]Timer
	for i := range standing {
		standing[i] = s.After(time.Hour+time.Duration(i)*time.Millisecond, fn)
	}

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

	if avg := testing.AllocsPerRun(200, func() {
		for i, tm := range standing[:32] {
			tm.Cancel()
			standing[i] = s.After(time.Hour+time.Duration(i)*time.Millisecond, fn)
		}
	}); avg > 0 {
		t.Errorf("far re-arm cycle allocates %.1f objects per run, want 0", avg)
	}
	if got := len(s.heaps[farTier]); got != len(standing) {
		t.Fatalf("far tier holds %d events, want the %d standing timers", got, len(standing))
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

// BenchmarkSchedulerStandingTimers is BenchmarkSchedulerTimers with the
// standing timers of a 2000-node city in the queue: one period timer
// per node, each at least 1 s out and re-armed one period later when it
// fires, as the distributed GMP agents do.
func BenchmarkSchedulerStandingTimers(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	var boundary func()
	boundary = func() { s.After(time.Second, boundary) }
	for i := 0; i < 2000; i++ {
		s.After(time.Second+time.Duration(i)*50*time.Microsecond, boundary)
	}
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

// TestSchedulerMatchesReference is a differential test of the two-tier
// slab heap against a brute-force reference. Random
// At/After/Cancel/Run/Step sequences, with timestamps drawn from a
// handful of values so most events tie, are mirrored into a flat list
// of records. Every callback checks that it is the reference's minimum
// by (at, seq) among pending records; callbacks sometimes schedule
// further events, including at the current instant. After every
// operation each handle ever issued must report Pending exactly when
// its record is pending, so a stale handle whose slot has been reused
// neither cancels nor reports the slot's new occupant.
//
// Each seed runs under several tier horizons, from every future event
// far (-1) through splits inside the drawn spread to the production
// farHorizon, and every horizon must fire the same sequence. The test
// also counts the cross-tier cases it reached (ties across the tiers,
// cancelled and stale far handles, Run and Step with only the far tier
// populated) and fails if any was never exercised.
func TestSchedulerMatchesReference(t *testing.T) {
	var cov refCoverage
	for seed := int64(0); seed < 30; seed++ {
		var want []int
		for _, horizon := range []time.Duration{farHorizon, -1, 0, 2 * time.Microsecond, 30 * time.Microsecond} {
			got := runReference(t, seed, horizon, &cov)
			if want == nil {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("seed %d: horizon %v fired %v, horizon %v fired %v", seed, horizon, got, farHorizon, want)
			}
		}
	}
	t.Logf("cross-tier cases reached: %+v", cov)
	for name, n := range map[string]int{
		"stale handle sharing a slot with a live event": cov.reused,
		"stale far handle sharing a slot":               cov.staleFar,
		"tie in at across the tiers":                    cov.crossTies,
		"cancel of a pending far event":                 cov.farCancels,
		"Run with only the far tier populated":          cov.farOnlyRuns,
		"Step with only the far tier populated":         cov.farOnlySteps,
	} {
		if n == 0 {
			t.Errorf("the test never exercised a %s", name)
		}
	}
}

// refCoverage counts the cases runReference reached.
type refCoverage struct {
	reused, staleFar, crossTies, farCancels, farOnlyRuns, farOnlySteps int
}

// runReference drives one random operation sequence against a
// scheduler with the given tier horizon, checking it against the
// brute-force reference, and returns the record numbers in firing order.
func runReference(t *testing.T, seed int64, horizon time.Duration, cov *refCoverage) []int {
	t.Helper()
	type record struct {
		at      time.Duration
		seq     int
		pending bool
		far     bool // scheduled onto the far tier
		tm      Timer
	}
	rng := rand.New(rand.NewSource(seed))
	s := NewScheduler()
	s.horizon = horizon
	var recs []*record
	var order []int

	var schedule func(at time.Duration, relative bool)
	schedule = func(at time.Duration, relative bool) {
		r := &record{at: at, seq: len(recs), pending: true}
		recs = append(recs, r)
		fn := func() {
			for _, o := range recs {
				if o.pending && (o.at < r.at || o.at == r.at && o.seq < r.seq) {
					t.Fatalf("seed %d horizon %v: fired #%d (at %v) before pending #%d (at %v)", seed, horizon, r.seq, r.at, o.seq, o.at)
				}
				if o.pending && o != r && o.at == r.at && o.far != r.far {
					cov.crossTies++
				}
			}
			if !r.pending || s.Now() != r.at {
				t.Fatalf("seed %d horizon %v: #%d fired at %v, pending=%v, scheduled for %v", seed, horizon, r.seq, s.Now(), r.pending, r.at)
			}
			r.pending = false
			order = append(order, r.seq)
			if rng.Intn(4) == 0 {
				schedule(s.Now()+time.Duration(rng.Intn(3))*time.Microsecond, false)
			}
		}
		if relative {
			r.tm = s.After(at-s.Now(), fn)
		} else {
			r.tm = s.At(at, fn)
		}
		r.far = s.events[r.tm.slot].tier == farTier
		if r.far != (at-s.Now() > horizon) {
			t.Fatalf("seed %d horizon %v: #%d due in %v landed on tier far=%v", seed, horizon, r.seq, at-s.Now(), r.far)
		}
	}
	check := func(op string) {
		live := 0
		for _, r := range recs {
			if r.tm.Pending() != r.pending {
				t.Fatalf("seed %d horizon %v after %s: handle #%d Pending() = %v, reference %v", seed, horizon, op, r.seq, r.tm.Pending(), r.pending)
			}
			if r.pending {
				live++
			}
		}
		if s.Pending() != live {
			t.Fatalf("seed %d horizon %v after %s: Pending() = %d, reference %d", seed, horizon, op, s.Pending(), live)
		}
	}
	farOnly := func() bool { return len(s.heaps[nearTier]) == 0 && len(s.heaps[farTier]) > 0 }

	for op := 0; op < 400; op++ {
		switch r := rng.Intn(12); {
		case r < 5:
			// Mostly ties; sometimes a wide spread, so the heaps grow
			// deep enough for removals to need sifting either way, and
			// events straddle every horizon under test.
			spread := []int{4, 4, 64}[rng.Intn(3)]
			schedule(s.Now()+time.Duration(rng.Intn(spread))*time.Microsecond, r < 2)
			check("schedule")
		case r < 8:
			if len(recs) > 0 {
				rec := recs[rng.Intn(len(recs))]
				if rec.pending && rec.far {
					cov.farCancels++
				}
				if got := rec.tm.Cancel(); got != rec.pending {
					t.Fatalf("seed %d horizon %v: Cancel() of #%d = %v, reference pending %v", seed, horizon, rec.seq, got, rec.pending)
				}
				rec.pending = false
				check("cancel")
			}
		case r < 10:
			if farOnly() {
				cov.farOnlyRuns++
			}
			until := s.Now() + time.Duration(rng.Intn(3))*time.Microsecond
			s.Run(until)
			if s.Now() != until {
				t.Fatalf("seed %d horizon %v: Run(%v) left Now() = %v", seed, horizon, until, s.Now())
			}
			for _, rec := range recs {
				if rec.pending && rec.at <= until {
					t.Fatalf("seed %d horizon %v: #%d at %v still pending after Run(%v)", seed, horizon, rec.seq, rec.at, until)
				}
			}
			check("run")
		default:
			if farOnly() {
				cov.farOnlySteps++
			}
			want, before := s.Pending(), len(order)
			if got := s.Step(); got != (want > 0) || len(order)-before != min(want, 1) {
				t.Fatalf("seed %d horizon %v: Step() = %v firing %d events with %d pending", seed, horizon, got, len(order)-before, want)
			}
			check("step")
		}
	}
	for _, a := range recs {
		for _, b := range recs {
			if a != b && a.tm.slot == b.tm.slot && !a.pending && b.pending {
				cov.reused++
				if a.far {
					cov.staleFar++
				}
			}
		}
	}
	s.Run(s.Now() + time.Millisecond)
	check("drain")
	return order
}
