package radio

import (
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/obs"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// deliverOne transmits a unicast data frame on a two-node link and runs
// the clock past its airtime, exercising carrier sense, occupancy
// accounting, delivery, and the idle transition.
func deliverOne(h *harness, f *Frame) {
	h.medium.Transmit(0, f)
	h.sched.Run(h.sched.Now() + 2*time.Millisecond)
}

// TestDeliveryAllocs pins the steady-state allocation count of the frame
// delivery hot path. The transmission record, its end-of-air closure, and
// the scheduler event are all pooled, so a warm medium should allocate at
// most a handful of objects per frame (the occupancy bookkeeping); the
// pre-optimization kernel allocated on every layer.
func TestDeliveryAllocs(t *testing.T) {
	h := newHarness(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	f := dataFrame(0, 1)

	// Warm the pools.
	for i := 0; i < 16; i++ {
		deliverOne(h, f)
	}

	avg := testing.AllocsPerRun(200, func() { deliverOne(h, f) })
	const maxAllocs = 2
	if avg > maxAllocs {
		t.Errorf("frame delivery allocates %.1f objects per frame, want <= %d", avg, maxAllocs)
	}
	if got := h.nodes[1].frames; len(got) == 0 {
		t.Fatal("no frames delivered")
	}
}

// TestDeliveryAllocsNilRecorder pins the instrumentation's zero-cost
// contract on the frame-delivery hot path: with the zero probe
// explicitly installed (the disabled state every uninstrumented run
// uses), delivery allocates no more than the baseline measured
// alongside.
func TestDeliveryAllocsNilRecorder(t *testing.T) {
	baseline := newHarness(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	disabled := newHarness(t, []geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}})
	disabled.medium.SetProbe(obs.Probe{})
	f := dataFrame(0, 1)

	for i := 0; i < 16; i++ {
		deliverOne(baseline, f)
		deliverOne(disabled, f)
	}
	base := testing.AllocsPerRun(200, func() { deliverOne(baseline, f) })
	got := testing.AllocsPerRun(200, func() { deliverOne(disabled, f) })
	if got > base {
		t.Errorf("delivery with nil recorder allocates %.1f objects per frame, baseline %.1f", got, base)
	}
}

// BenchmarkMediumDelivery measures the per-frame cost of the medium in
// isolation: one data frame across a two-node link, including carrier
// sense, busy/idle callbacks, and occupancy accounting.
func BenchmarkMediumDelivery(b *testing.B) {
	topo, err := topology.New([]geom.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	m := NewMedium(sched, topo, DefaultParams(), sim.NewRand(1))
	h := &harness{sched: sched, medium: m}
	for _, id := range topo.Nodes() {
		r := &recorder{}
		m.Register(id, r)
		h.nodes = append(h.nodes, r)
	}
	f := dataFrame(0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(0, f)
		sched.Run(sched.Now() + 2*time.Millisecond)
		if i%1024 == 0 {
			// Keep the recorder slices from growing without bound.
			h.nodes[1].frames = h.nodes[1].frames[:0]
			h.nodes[1].oks = h.nodes[1].oks[:0]
		}
	}
}
