package core

import (
	"reflect"
	"testing"
	"time"

	"gmp/internal/clique"
	"gmp/internal/dissemination"
	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/mac"
	"gmp/internal/measure"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/scenario"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// distStack wires the full distributed runtime over a scenario with the
// out-of-band control bus.
type distStack struct {
	sched *sim.Scheduler
	reg   *flow.Registry
	dist  *Distributed
}

func newDistStack(t *testing.T, sc scenario.Scenario) *distStack {
	t.Helper()
	topo, err := sc.Topology()
	if err != nil {
		t.Fatal(err)
	}
	routes := routing.Build(topo)
	sched := sim.NewScheduler()
	master := sim.NewRand(1)
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(master.Int63()))
	reg, err := flow.NewRegistry(sc.Flows)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := forwarding.Config{
		Mode: forwarding.PerDestination, QueueSlots: 10,
		CongestionAvoidance: true, StaleAfter: 50 * time.Millisecond,
		RequeueOnFailure: true,
	}
	nodes := make([]*forwarding.Node, topo.NumNodes())
	for _, id := range topo.Nodes() {
		n := forwarding.NewNode(id, sched, fcfg, routes, reg.OnDeliver, reg.OnDrop)
		st := mac.NewStation(id, sched, medium, mac.DefaultConfig(), sim.NewRand(master.Int63()), n)
		n.SetMAC(st)
		nodes[id] = n
	}
	for _, spec := range sc.Flows {
		src := flow.NewSource(spec, sched, nodes[spec.Src], 4*time.Second, sim.NewRand(master.Int63()))
		reg.AttachSource(spec.ID, src)
		src.Start()
	}
	bus := dissemination.NewBus(topo)
	diss := make([]*dissemination.Agent, topo.NumNodes())
	for _, id := range topo.Nodes() {
		diss[id] = bus.NewAgent(id, topo)
	}
	board := measure.NewOccupancyBoard(medium, 4*time.Second)
	dist, err := StartDistributed(sched, topo, clique.Build(topo), board, nodes, diss,
		reg, DefaultParams(), sim.NewRand(master.Int63()))
	if err != nil {
		t.Fatal(err)
	}
	return &distStack{sched: sched, reg: reg, dist: dist}
}

func TestDistributedEqualizesFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(300 * time.Second)
	st.reg.Mark(300 * time.Second)
	st.sched.Run(400 * time.Second)
	rates := st.reg.MeasuredRates(400 * time.Second)
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if lo <= 0 {
		t.Fatalf("a flow starved: %v", rates)
	}
	if lo/hi < 0.55 {
		t.Errorf("distributed GMP failed to equalize: %v (I_mm %.3f)", rates, lo/hi)
	}
}

func TestDistributedAgentsExchangeState(t *testing.T) {
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(20 * time.Second)
	// After a few periods, node 0's agent must know the state of link
	// (2,3) — two hops away — through dissemination.
	a0 := st.dist.Agents[0]
	if _, ok := a0.lsdb[topology.Link{From: 2, To: 3}]; !ok {
		t.Error("agent 0 missing two-hop link state")
	}
	// And the saturation bit of node 1's queue for destination 3.
	if _, ok := a0.satdb[measure.VNodeID{Node: 1, Queue: packet.QueueForDest(3)}]; !ok {
		t.Error("agent 0 missing neighbor vnode saturation bit")
	}
}

func TestDistributedViolationsFire(t *testing.T) {
	st := newDistStack(t, scenario.Fig2([4]float64{1, 1, 1, 1}))
	st.sched.Run(120 * time.Second)
	// Node 1 hosts the structurally starved flow f2: its agent must have
	// originated bandwidth-condition violations.
	if st.dist.Agents[1].Violations() == 0 {
		t.Error("agent 1 never flagged the bandwidth-saturated condition")
	}
	// Other agents must have processed them.
	processed := int64(0)
	for _, a := range st.dist.Agents {
		processed += a.ViolationsReceived()
	}
	if processed == 0 {
		t.Error("no agent processed a violation")
	}
}

func TestDistributedTraceRecorded(t *testing.T) {
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(40 * time.Second)
	trace := st.dist.Trace()
	if len(trace) < 8 {
		t.Fatalf("trace rounds = %d, want ~10", len(trace))
	}
	if len(trace[0].Rates) != 3 {
		t.Errorf("trace rates per round = %d, want 3", len(trace[0].Rates))
	}
}

func TestNewAgentValidation(t *testing.T) {
	sc := scenario.Fig3()
	topo, err := sc.Topology()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewAgent(0, sim.NewScheduler(), topo, clique.Build(topo), nil, nil, nil, DefaultParams(), nil)
	if err == nil {
		t.Error("nil deliver accepted")
	}
	bad := DefaultParams()
	bad.Beta = 0
	_, err = NewAgent(0, sim.NewScheduler(), topo, clique.Build(topo), nil, nil, nil, bad, func(packet.FlowID, Request) {})
	if err == nil {
		t.Error("invalid params accepted")
	}
}

// TestAgentSourceBufferReadsMeters drives the agent's source-condition
// inputs: upstream links come from its receiver-side meters, typed by
// the saturation bits it holds, and local flows from its own sources.
func TestAgentSourceBufferReadsMeters(t *testing.T) {
	st := newDistStack(t, scenario.Fig3())
	st.sched.Run(10 * time.Second)
	// Node 1 relays flow 0 (0→3) and sources flow 1 (1→3), both in its
	// queue toward node 3.
	a := st.dist.Agents[1]
	q := packet.QueueForDest(3)
	src := a.localSources[0]
	mu := src.NormRate()
	if mu == 0 {
		t.Fatal("local flow has no completed period")
	}
	src.SetLimit(1e6)
	key := forwarding.VLinkKey{From: 0, To: 1, Queue: q}
	a.inMeters = map[forwarding.VLinkKey]*forwarding.VLinkMeter{
		key: {Primary: forwarding.PrimaryInfo{NormRate: mu / 10, Flows: map[packet.FlowID]topology.NodeID{0: 0}}},
	}
	a.saturated = map[packet.QueueID]bool{q: true}
	got := make(map[packet.FlowID]Request)
	a.deliver = func(f packet.FlowID, req Request) { got[f] = req }

	// Both ends saturated: a buffer-saturated upstream link starved to a
	// tenth of the local flow's rate. Halve the local flow, double the
	// upstream primary.
	a.satdb[measure.VNodeID{Node: 0, Queue: q}] = true
	a.testSourceAndBuffer()
	want := map[packet.FlowID]Request{1: {Reduce: true, Factor: 0.5}, 0: {Factor: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("requests %v, want %v", got, want)
	}

	// Upstream sender unsaturated: the link is not buffer-saturated, so
	// S1 is the local flow's own rate and the condition holds.
	clear(got)
	a.satdb[measure.VNodeID{Node: 0, Queue: q}] = false
	a.testSourceAndBuffer()
	if len(got) != 0 {
		t.Errorf("requests %v with an unsaturated upstream sender, want none", got)
	}
}
