package main

import (
	"fmt"
	"math/rand"
	"time"

	"gmp"
	"gmp/internal/radio"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// microBudget is the time each layer microbenchmark measures for.
const microBudget = 300 * time.Millisecond

// timeBatches runs op in batches of n until budget has gone (at least
// five batches) and returns the median nanoseconds per op.
func timeBatches(n int, budget time.Duration, op func()) float64 {
	var perOp []float64
	start := time.Now()
	for len(perOp) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op()
		}
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(perOp)
}

// timerNS measures Scheduler.At plus the firing of one event with the
// heap held at depth pending events. Each op schedules one event a
// random offset ahead and fires the earliest, so the depth stays fixed
// and new events land at random heap positions.
func timerNS(depth int) float64 {
	s := sim.NewScheduler()
	rng := rand.New(rand.NewSource(1))
	const horizon = int64(time.Millisecond)
	noop := func() {}
	for i := 0; i < depth; i++ {
		s.At(time.Duration(rng.Int63n(horizon)), noop)
	}
	return timeBatches(10000, microBudget, func() {
		s.At(s.Now()+time.Duration(rng.Int63n(horizon)), noop)
		s.Step()
	})
}

// timerDepth approximates the event-heap depth of a running session:
// one pending MAC event per station and one generator timer per flow.
func timerDepth(cfg gmp.Config) int {
	return len(cfg.Scenario.Positions) + len(cfg.Scenario.Flows)
}

// silentStation is a radio.Station that only counts deliveries.
type silentStation struct{ frames int }

func (s *silentStation) OnBusy()                    {}
func (s *silentStation) OnIdle()                    {}
func (s *silentStation) OnFrame(*radio.Frame, bool) { s.frames++ }

// deliveryNS measures Medium.Transmit of an RTS through to its delivery
// at the end of air, to the receiver and every overhearer, cycling the
// transmitter over every node of topo that has a neighbor.
func deliveryNS(topo *topology.Topology) (float64, error) {
	sched := sim.NewScheduler()
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), rand.New(rand.NewSource(1)))
	stations := make([]silentStation, topo.NumNodes())
	var frames []*radio.Frame
	for _, id := range topo.Nodes() {
		medium.Register(id, &stations[id])
		if nb := topo.Neighbors(id); len(nb) > 0 {
			frames = append(frames, &radio.Frame{Kind: radio.FrameRTS, From: id, To: nb[0], LinkFrom: id, LinkTo: nb[0]})
		}
	}
	if len(frames) == 0 {
		return 0, fmt.Errorf("radio microbenchmark: topology has no links")
	}
	next := 0
	ns := timeBatches(1000, microBudget, func() {
		f := frames[next]
		next = (next + 1) % len(frames)
		medium.Transmit(f.From, f)
		sched.Step()
	})
	delivered := 0
	for i := range stations {
		delivered += stations[i].frames
	}
	if delivered == 0 || sched.Pending() != 0 {
		return 0, fmt.Errorf("radio microbenchmark: %d deliveries, %d events left", delivered, sched.Pending())
	}
	return ns, nil
}
