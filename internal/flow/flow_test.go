package flow

import (
	"math"
	"testing"
	"time"

	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

const testPeriod = 4 * time.Second

func harness(t *testing.T, queueSlots int) (*forwarding.Node, *sim.Scheduler) {
	t.Helper()
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 400}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := forwarding.DefaultConfig()
	cfg.QueueSlots = queueSlots
	sched := sim.NewScheduler()
	node := forwarding.NewNode(0, sched, cfg, routing.Build(topo), nil, nil)
	return node, sched
}

func spec(rate float64, weight float64) Spec {
	return Spec{ID: 0, Src: 0, Dst: 2, Weight: weight, DesiredRate: rate, SizeBytes: 1024}
}

// drain empties the node's queues on a fixed interval so the source never
// blocks.
func drain(node *forwarding.Node, sched *sim.Scheduler, every time.Duration) {
	var tick func()
	tick = func() {
		for _, ok := node.NextOutgoing(); ok; _, ok = node.NextOutgoing() {
			// discard
		}
		sched.After(every, tick)
	}
	sched.After(every, tick)
}

func TestSpecValidate(t *testing.T) {
	good := spec(800, 1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{ID: 0, Src: 1, Dst: 1, Weight: 1, DesiredRate: 1, SizeBytes: 1},
		{ID: 0, Src: 0, Dst: 1, Weight: 0, DesiredRate: 1, SizeBytes: 1},
		{ID: 0, Src: 0, Dst: 1, Weight: 1, DesiredRate: 0, SizeBytes: 1},
		{ID: 0, Src: 0, Dst: 1, Weight: 1, DesiredRate: 1, SizeBytes: 0},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: invalid spec accepted", i)
		}
	}
}

func TestSourceGeneratesAtDesiredRate(t *testing.T) {
	node, sched := harness(t, 300)
	src := NewSource(spec(100, 1), sched, node, testPeriod, sim.NewRand(3))
	drain(node, sched, 10*time.Millisecond)
	src.Start()
	sched.Run(10 * time.Second)
	got := float64(src.InjectedTotal()) / 10
	if math.Abs(got-100) > 10 {
		t.Errorf("injection rate %.1f, want ~100", got)
	}
}

func TestSourceCBRIsExact(t *testing.T) {
	node, sched := harness(t, 300)
	src := NewSource(spec(100, 1), sched, node, testPeriod, sim.NewRand(3))
	src.SetCBR(true)
	drain(node, sched, 10*time.Millisecond)
	src.Start()
	sched.Run(10 * time.Second)
	if got := src.InjectedTotal(); got < 999 || got > 1001 {
		t.Errorf("CBR injected %d packets in 10s at 100/s", got)
	}
}

func TestRateLimitCapsGeneration(t *testing.T) {
	node, sched := harness(t, 300)
	src := NewSource(spec(800, 1), sched, node, testPeriod, sim.NewRand(3))
	src.SetLimit(50)
	drain(node, sched, 10*time.Millisecond)
	src.Start()
	sched.Run(10 * time.Second)
	got := float64(src.InjectedTotal()) / 10
	if math.Abs(got-50) > 8 {
		t.Errorf("limited rate %.1f, want ~50", got)
	}
}

func TestSetLimitBounds(t *testing.T) {
	node, sched := harness(t, 300)
	src := NewSource(spec(800, 1), sched, node, testPeriod, sim.NewRand(3))
	src.SetLimit(0.01)
	if l, ok := src.Limited(); !ok || l != MinRate {
		t.Errorf("limit = %v,%v; want floor %v", l, ok, MinRate)
	}
	src.SetLimit(900) // above desire: limit is meaningless
	if _, ok := src.Limited(); ok {
		t.Error("limit at/above desired rate should be removed")
	}
	src.SetLimit(100)
	src.RemoveLimit()
	if _, ok := src.Limited(); ok {
		t.Error("RemoveLimit did not clear")
	}
}

func TestBackpressurePausesSource(t *testing.T) {
	// Queue of 5 slots, nobody drains: the source must stop at 5.
	node, sched := harness(t, 5)
	src := NewSource(spec(800, 1), sched, node, testPeriod, sim.NewRand(3))
	src.Start()
	sched.Run(2 * time.Second)
	if got := src.InjectedTotal(); got != 5 {
		t.Fatalf("injected %d with a 5-slot blocked queue", got)
	}
	// Drain two slots: exactly two more get in.
	node.NextOutgoing()
	node.NextOutgoing()
	sched.Run(4 * time.Second)
	if got := src.InjectedTotal(); got != 7 {
		t.Fatalf("injected %d after freeing 2 slots, want 7", got)
	}
}

// TestBlockedSourceReusesRefusedPacket checks that a source held back by
// a full queue admits the very packet the queue refused, rewritten,
// once the queue opens, instead of allocating a fresh one.
func TestBlockedSourceReusesRefusedPacket(t *testing.T) {
	node, sched := harness(t, 1)
	src := NewSource(spec(800, 1), sched, node, testPeriod, sim.NewRand(3))
	src.Start()
	sched.Run(100 * time.Millisecond)
	refused := src.refused
	if refused == nil {
		t.Fatal("source on a full queue holds no refused packet")
	}
	first, _ := node.NextOutgoing() // opens the queue; the source resumes
	second, ok := node.NextOutgoing()
	if !ok || second.Pkt != refused || second.Pkt.Seq != first.Pkt.Seq+1 || second.Pkt.Created != sched.Now() {
		t.Fatalf("admitted %+v after %+v, want the refused packet %p renumbered and restamped", second.Pkt, first.Pkt, refused)
	}
}

func TestEndPeriodRatesAndStamping(t *testing.T) {
	node, sched := harness(t, 300) // deep queue: no draining needed
	src := NewSource(spec(50, 2), sched, node, testPeriod, sim.NewRand(3))
	src.Start()
	sched.Run(testPeriod)
	r := src.EndPeriod()
	if math.Abs(r-50) > 10 {
		t.Fatalf("period rate %.1f, want ~50", r)
	}
	// Normalized rate divides by the weight.
	if math.Abs(src.NormRate()-r/2) > 1e-9 {
		t.Errorf("norm rate %v, want %v", src.NormRate(), r/2)
	}
	if src.LastPeriodRate() != r {
		t.Error("LastPeriodRate mismatch")
	}
	// Drain everything generated so far, then let one more period of
	// packets accumulate: they must carry the stamp.
	for _, ok := node.NextOutgoing(); ok; _, ok = node.NextOutgoing() {
		// discard pre-period packets
	}
	sched.Run(2 * testPeriod)
	out, ok := node.NextOutgoing()
	if !ok {
		t.Fatal("no post-period packet generated")
	}
	if !out.Pkt.Stamped {
		t.Fatal("post-period packet not stamped")
	}
	if math.Abs(out.Pkt.NormRate-src.NormRate()) > 1e-9 {
		t.Errorf("stamp %v, want %v", out.Pkt.NormRate, src.NormRate())
	}
}

func TestPacketsBeforeFirstPeriodUnstamped(t *testing.T) {
	node, sched := harness(t, 300)
	src := NewSource(spec(100, 1), sched, node, testPeriod, sim.NewRand(3))
	src.Start()
	sched.Run(100 * time.Millisecond)
	out, ok := node.NextOutgoing()
	if !ok {
		t.Fatal("no packet generated")
	}
	if out.Pkt.Stamped {
		t.Error("packet stamped before any period completed")
	}
}

func TestRegistryAccounting(t *testing.T) {
	specs := []Spec{
		{ID: 0, Src: 0, Dst: 2, Weight: 1, DesiredRate: 100, SizeBytes: 1024},
		{ID: 1, Src: 1, Dst: 2, Weight: 1, DesiredRate: 100, SizeBytes: 1024},
	}
	reg, err := NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Flow: 1, Src: 1, Dst: 2}
	reg.OnDeliver(p, 2)
	reg.OnDeliver(p, 2)
	reg.OnDrop(p, forwarding.DropRetry)
	if reg.Delivered(1) != 2 || reg.Delivered(0) != 0 {
		t.Error("delivery counts wrong")
	}
	if reg.Dropped(1) != 1 {
		t.Error("drop count wrong")
	}
}

func TestRegistryRejectsNonDenseIDs(t *testing.T) {
	_, err := NewRegistry([]Spec{{ID: 1, Src: 0, Dst: 2, Weight: 1, DesiredRate: 1, SizeBytes: 1}})
	if err == nil {
		t.Error("non-dense IDs accepted")
	}
}

func TestMarkAndMeasuredRates(t *testing.T) {
	specs := []Spec{{ID: 0, Src: 0, Dst: 2, Weight: 1, DesiredRate: 100, SizeBytes: 1024}}
	reg, err := NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{Flow: 0, Src: 0, Dst: 2}
	for i := 0; i < 100; i++ {
		reg.OnDeliver(p, 2)
	}
	reg.Mark(10 * time.Second)
	for i := 0; i < 50; i++ {
		reg.OnDeliver(p, 2)
	}
	rates := reg.MeasuredRates(20 * time.Second)
	if math.Abs(rates[0]-5) > 1e-9 {
		t.Errorf("windowed rate %v, want 5 (50 pkts / 10 s)", rates[0])
	}
}

func TestSpecActiveAt(t *testing.T) {
	s := spec(100, 1)
	s.Start = 10 * time.Second
	s.Stop = 20 * time.Second
	if s.ActiveAt(5 * time.Second) {
		t.Error("active before start")
	}
	if !s.ActiveAt(15 * time.Second) {
		t.Error("inactive inside window")
	}
	if s.ActiveAt(25 * time.Second) {
		t.Error("active after stop")
	}
	forever := spec(100, 1)
	if !forever.ActiveAt(time.Hour) {
		t.Error("zero stop should mean forever")
	}
}

func TestSpecChurnValidation(t *testing.T) {
	s := spec(100, 1)
	s.Start = 10 * time.Second
	s.Stop = 5 * time.Second
	if err := s.Validate(); err == nil {
		t.Error("stop before start accepted")
	}
	s.Start = -time.Second
	if err := s.Validate(); err == nil {
		t.Error("negative start accepted")
	}
}

func TestSourceChurnWindow(t *testing.T) {
	node, sched := harness(t, 300)
	sp := spec(100, 1)
	sp.Start = 2 * time.Second
	sp.Stop = 6 * time.Second
	src := NewSource(sp, sched, node, testPeriod, sim.NewRand(3))
	drain(node, sched, 10*time.Millisecond)
	src.Start()

	sched.Run(2 * time.Second)
	if src.InjectedTotal() != 0 {
		t.Fatalf("injected %d before start", src.InjectedTotal())
	}
	sched.Run(6 * time.Second)
	active := src.InjectedTotal()
	if active < 300 || active > 500 {
		t.Fatalf("injected %d during 4s active window at 100/s", active)
	}
	sched.Run(20 * time.Second)
	if src.InjectedTotal() != active {
		t.Errorf("injection continued after stop: %d vs %d", src.InjectedTotal(), active)
	}
}

func TestStoppedSourceIgnoresQueueOpen(t *testing.T) {
	// A source blocked on a full queue at its stop time must not resume
	// when the queue later opens.
	node, sched := harness(t, 2)
	sp := spec(800, 1)
	sp.Stop = time.Second
	src := NewSource(sp, sched, node, testPeriod, sim.NewRand(3))
	src.Start()
	sched.Run(time.Second) // fills the 2-slot queue, source waiting
	injected := src.InjectedTotal()
	node.NextOutgoing() // open the queue after the stop time
	sched.Run(2 * time.Second)
	if src.InjectedTotal() != injected {
		t.Error("stopped source resumed on queue open")
	}
}

func TestSetHaltedStopsAndResumesGeneration(t *testing.T) {
	node, sched := harness(t, 300)
	src := NewSource(spec(100, 1), sched, node, testPeriod, sim.NewRand(3))
	src.SetCBR(true)
	drain(node, sched, 10*time.Millisecond)
	src.Start()
	sched.Run(5 * time.Second)

	src.SetHalted(true)
	if !src.Halted() {
		t.Fatal("Halted not reported")
	}
	atHalt := src.InjectedTotal()
	if atHalt == 0 {
		t.Fatal("no injections before halt")
	}
	sched.Run(10 * time.Second)
	if got := src.InjectedTotal(); got != atHalt {
		t.Errorf("halted source injected: %d -> %d", atHalt, got)
	}

	src.SetHalted(false)
	sched.Run(15 * time.Second)
	injected := src.InjectedTotal() - atHalt
	// ~5 s of live generation at 100 pps CBR.
	if injected < 450 || injected > 550 {
		t.Errorf("resumed source injected %d packets in ~5s at 100/s", injected)
	}
}

// TestSetHaltedDefusesQueueOpenWaiter halts a source while it is
// blocked on a full queue, then drains the queue: the pending waiter
// must not re-arm generation on a halted source.
func TestSetHaltedDefusesQueueOpenWaiter(t *testing.T) {
	node, sched := harness(t, 1)
	src := NewSource(spec(100, 1), sched, node, testPeriod, sim.NewRand(3))
	src.SetCBR(true)
	src.Start()
	sched.Run(2 * time.Second) // fills the 1-slot queue, source now waiting

	src.SetHalted(true)
	atHalt := src.InjectedTotal()
	for _, ok := node.NextOutgoing(); ok; _, ok = node.NextOutgoing() {
		// queue-open transition fires here
	}
	sched.Run(5 * time.Second)
	if got := src.InjectedTotal(); got != atHalt {
		t.Errorf("queue-open waiter revived a halted source: %d -> %d", atHalt, got)
	}
}

// TestSetHaltedBeforeStartTime revives a source before its scheduled
// start: generation must still begin at Start, not immediately.
func TestSetHaltedBeforeStartTime(t *testing.T) {
	node, sched := harness(t, 300)
	sp := spec(100, 1)
	sp.Start = 10 * time.Second
	src := NewSource(sp, sched, node, testPeriod, sim.NewRand(3))
	src.SetCBR(true)
	drain(node, sched, 10*time.Millisecond)
	src.Start()
	sched.Run(2 * time.Second)

	src.SetHalted(true)
	src.SetHalted(false)       // revive at t=2s, well before Start
	sched.Run(9 * time.Second) // Run takes an absolute deadline
	if got := src.InjectedTotal(); got != 0 {
		t.Errorf("source injected %d packets before its start time", got)
	}
	sched.Run(15 * time.Second)
	if got := src.InjectedTotal(); got == 0 {
		t.Error("source never started after its start time")
	}
}

func TestRegistryDroppedBy(t *testing.T) {
	reg, err := NewRegistry([]Spec{
		{ID: 0, Src: 0, Dst: 2, Weight: 1, DesiredRate: 10, SizeBytes: 1024},
		{ID: 1, Src: 1, Dst: 2, Weight: 1, DesiredRate: 10, SizeBytes: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	p0 := &packet.Packet{Flow: 0, Src: 0, Dst: 2, SizeBytes: 1024, Weight: 1}
	reg.OnDrop(p0, forwarding.DropNodeDown)
	reg.OnDrop(p0, forwarding.DropNodeDown)
	reg.OnDrop(p0, forwarding.DropNoRoute)

	by := reg.DroppedBy(0)
	if by[forwarding.DropNodeDown] != 2 || by[forwarding.DropNoRoute] != 1 {
		t.Errorf("DroppedBy(0) = %v", by)
	}
	if reg.Dropped(0) != 3 {
		t.Errorf("Dropped(0) = %d, want 3", reg.Dropped(0))
	}
	// A flow with no drops returns an empty, non-nil-safe-to-read map.
	if got := reg.DroppedBy(1); len(got) != 0 {
		t.Errorf("DroppedBy(1) = %v, want empty", got)
	}
	// The returned map is a copy: mutating it must not corrupt accounting.
	by[forwarding.DropNodeDown] = 99
	if reg.DroppedBy(0)[forwarding.DropNodeDown] != 2 {
		t.Error("DroppedBy returned a live reference")
	}
}
