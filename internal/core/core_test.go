package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"gmp/internal/clique"
	"gmp/internal/flow"
	"gmp/internal/forwarding"
	"gmp/internal/geom"
	"gmp/internal/measure"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

func TestParamsValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Params{
		{Period: 0, Beta: 0.1, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 0, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 1, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 0.1, OmegaThreshold: 0, AdditiveIncrease: 2, HalveGap: 3},
		{Period: time.Second, Beta: 0.1, OmegaThreshold: 0.25, AdditiveIncrease: 0, HalveGap: 3},
		{Period: time.Second, Beta: 0.1, OmegaThreshold: 0.25, AdditiveIncrease: 2, HalveGap: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestBetaEquality(t *testing.T) {
	p := Params{Beta: 0.10}
	tests := []struct {
		a, b float64
		want bool
	}{
		{100, 100, true},
		{100, 91, true},   // 9% below
		{100, 89, false},  // 11% below
		{91, 100, true},   // symmetric
		{0, 0, true},      // degenerate
		{0, 1, false},     // zero vs positive
		{1000, 905, true}, // scales with magnitude
	}
	for _, tt := range tests {
		if got := p.eq(tt.a, tt.b); got != tt.want {
			t.Errorf("eq(%v,%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestRequestAggregation(t *testing.T) {
	r := make(reqSet)
	// Increases keep the smallest factor.
	r.add(0, Request{Factor: 2.0})
	r.add(0, Request{Factor: 1.1})
	if req := r[0]; req.Reduce || req.Factor != 1.1 {
		t.Errorf("increase aggregation = %+v", req)
	}
	r.add(0, Request{Factor: 1.5})
	if req := r[0]; req.Factor != 1.1 {
		t.Errorf("larger increase overwrote smaller: %+v", req)
	}
	// A reduction overrides any increase.
	r.add(0, Request{Reduce: true, Factor: 0.9})
	if req := r[0]; !req.Reduce || req.Factor != 0.9 {
		t.Errorf("reduce did not override: %+v", req)
	}
	// Later increases cannot displace a reduction.
	r.add(0, Request{Factor: 1.1})
	if req := r[0]; !req.Reduce {
		t.Errorf("increase displaced a reduction: %+v", req)
	}
	// Among reductions the largest cut (smallest factor) wins.
	r.add(0, Request{Reduce: true, Factor: 0.5})
	if req := r[0]; req.Factor != 0.5 {
		t.Errorf("reduce aggregation = %+v", req)
	}
	r.add(0, Request{Reduce: true, Factor: 0.9})
	if req := r[0]; req.Factor != 0.5 {
		t.Errorf("weaker reduce overwrote stronger: %+v", req)
	}
}

// emitted is one request sourceBuffer emitted, with its attribution.
type emitted struct {
	req  Request
	cond obs.Condition
}

func TestSourceBuffer(t *testing.T) {
	q := packet.QueueForDest(9)
	up := func(from topology.NodeID, mu float64, typ measure.LinkType, flows ...packet.FlowID) *measure.VLinkState {
		prim := make(map[packet.FlowID]topology.NodeID)
		for _, f := range flows {
			prim[f] = from
		}
		return &measure.VLinkState{Key: forwarding.VLinkKey{From: from, To: 0, Queue: q}, NormRate: mu, Primaries: prim, Type: typ}
	}
	buf, bw := measure.BufferSaturated, measure.BandwidthSaturated
	down, incr := Request{Reduce: true, Factor: 0.9}, Request{Factor: 1.1}
	halve, double := Request{Reduce: true, Factor: 0.5}, Request{Factor: 2}
	tests := []struct {
		name   string
		ups    []*measure.VLinkState
		locals []localFlow
		want   map[packet.FlowID]emitted
	}{
		{
			name: "beta-equal rates are a no-op",
			ups:  []*measure.VLinkState{up(1, 100, buf, 1), up(2, 91, buf, 2)},
			want: map[packet.FlowID]emitted{},
		},
		{
			name: "narrow gap steps by beta on every primary",
			ups:  []*measure.VLinkState{up(1, 100, buf, 1, 2), up(2, 80, buf, 3)},
			want: map[packet.FlowID]emitted{
				1: {down, obs.CondBuffer}, 2: {down, obs.CondBuffer}, 3: {incr, obs.CondBuffer},
			},
		},
		{
			name: "gap past HalveGap halves and doubles",
			ups:  []*measure.VLinkState{up(1, 100, buf, 1), up(2, 10, buf, 2)},
			want: map[packet.FlowID]emitted{1: {halve, obs.CondBuffer}, 2: {double, obs.CondBuffer}},
		},
		{
			name: "gap of exactly HalveGap still steps by beta",
			ups:  []*measure.VLinkState{up(1, 90, buf, 1), up(2, 30, buf, 2)},
			want: map[packet.FlowID]emitted{1: {down, obs.CondBuffer}, 2: {incr, obs.CondBuffer}},
		},
		{
			name: "only buffer-saturated upstream links set S1",
			ups:  []*measure.VLinkState{up(1, 100, bw, 1), up(2, 10, bw, 2)},
			want: map[packet.FlowID]emitted{},
		},
		{
			name:   "local flows without a completed period are ignored",
			ups:    []*measure.VLinkState{up(1, 100, buf, 1)},
			locals: []localFlow{{id: 7, mu: 0, limited: true}},
			want:   map[packet.FlowID]emitted{},
		},
		{
			name:   "a local flow is increased only when limited",
			ups:    []*measure.VLinkState{up(1, 100, bw, 1)},
			locals: []localFlow{{id: 7, mu: 50, limited: true}, {id: 8, mu: 50}},
			want:   map[packet.FlowID]emitted{1: {down, obs.CondSource}, 7: {incr, obs.CondSource}},
		},
		{
			name:   "a local flow at L1 is reduced",
			ups:    []*measure.VLinkState{up(1, 20, buf, 1)},
			locals: []localFlow{{id: 7, mu: 50}},
			want:   map[packet.FlowID]emitted{7: {down, obs.CondSource}, 1: {incr, obs.CondSource}},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := make(map[packet.FlowID]emitted)
			DefaultParams().sourceBuffer(tt.ups, tt.locals, func(f packet.FlowID, req Request, cond obs.Condition, via *measure.VLinkState) {
				if _, dup := got[f]; dup {
					t.Errorf("flow %d emitted twice", f)
				}
				if (via == nil) != (f >= 7) {
					t.Errorf("flow %d: via = %v", f, via)
				}
				got[f] = emitted{req, cond}
			})
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("emitted %v, want %v", got, tt.want)
			}
		})
	}
}

// engineHarness wires a minimal two-node network with one flow so apply()
// can be exercised against real sources.
type engineHarness struct {
	sched  *sim.Scheduler
	engine *Engine
	reg    *flow.Registry
	src    *flow.Source
}

func newEngineHarness(t *testing.T) *engineHarness {
	t.Helper()
	pos := []geom.Point{{X: 0}, {X: 200}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	routes := routing.Build(topo)
	node := forwarding.NewNode(0, sched, forwarding.DefaultConfig(), routes, nil, nil)
	specs := []flow.Spec{{ID: 0, Src: 0, Dst: 1, Weight: 1, DesiredRate: 800, SizeBytes: 1024}}
	reg, err := flow.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	src := flow.NewSource(specs[0], sched, node, 4*time.Second, sim.NewRand(1))
	reg.AttachSource(0, src)

	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(2))
	collector := measure.NewCollector([]*forwarding.Node{node}, medium, 0.25)
	engine, err := NewEngine(sched, topo, clique.Build(topo), reg, collector, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return &engineHarness{sched: sched, engine: engine, reg: reg, src: src}
}

func emptySnap() *measure.Snapshot {
	return &measure.Snapshot{
		Omega:     map[measure.VNodeID]float64{},
		Saturated: map[measure.VNodeID]bool{},
		VLinks:    map[forwarding.VLinkKey]*measure.VLinkState{},
		WLinks:    map[topology.Link]*measure.WLinkState{},
	}
}

func TestApplyReduceSetsLimitFromRate(t *testing.T) {
	h := newEngineHarness(t)
	h.engine.applyLimit(h.src, Request{Reduce: true, Factor: 0.5}, true, 200, true)
	limit, ok := h.src.Limited()
	if !ok || math.Abs(limit-100) > 1e-9 {
		t.Errorf("limit = %v,%v; want 100", limit, ok)
	}
}

func TestApplyReduceUsesTighterOfRateAndLimit(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(50)
	h.engine.applyLimit(h.src, Request{Reduce: true, Factor: 0.9}, true, 200, true)
	limit, _ := h.src.Limited()
	if math.Abs(limit-45) > 1e-9 {
		t.Errorf("limit = %v, want 45 (0.9 x min(200, 50))", limit)
	}
}

func TestApplyIncreaseScalesLimit(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	h.engine.applyLimit(h.src, Request{Factor: 1.1}, true, 100, true)
	limit, _ := h.src.Limited()
	if math.Abs(limit-110) > 1e-9 {
		t.Errorf("limit = %v, want 110", limit)
	}
}

func TestApplyIncreaseNoOpWhenUnlimited(t *testing.T) {
	h := newEngineHarness(t)
	h.engine.applyLimit(h.src, Request{Factor: 2}, true, 100, true)
	if _, ok := h.src.Limited(); ok {
		t.Error("increase created a limit out of nothing")
	}
}

func TestRateLimitConditionAdditiveIncrease(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	// Running at the limit: probe upward by the additive step, idle or
	// not.
	h.engine.applyLimit(h.src, Request{}, false, 99, true)
	limit, _ := h.src.Limited()
	want := 100 + DefaultParams().AdditiveIncrease
	if math.Abs(limit-want) > 1e-9 {
		t.Errorf("limit = %v, want %v", limit, want)
	}
}

func TestUnnecessaryLimitRemovedAfterTwoSlackRounds(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	snap := emptySnap() // source queue idle (omega 0)
	h.engine.apply(nil, []float64{50}, snap)
	if _, ok := h.src.Limited(); !ok {
		t.Fatal("limit removed after a single slack round")
	}
	h.engine.apply(nil, []float64{50}, snap)
	if _, ok := h.src.Limited(); ok {
		t.Error("limit not removed after two slack rounds")
	}
}

// TestLimitKeptWhileSourceQueueSaturated covers the engine's idle
// verdict: a source virtual node with Ω above idleOmega is busy, so a
// flow running under its limit probes instead of shedding it.
func TestLimitKeptWhileSourceQueueSaturated(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	snap := emptySnap()
	v := measure.VNodeID{Node: 0, Queue: packet.QueueForDest(1)}
	snap.Omega[v] = 0.5
	snap.Saturated[v] = true
	for i := 0; i < 5; i++ {
		h.engine.apply(nil, []float64{50}, snap)
	}
	limit, ok := h.src.Limited()
	if !ok {
		t.Fatal("limit removed while the source was backpressured")
	}
	if want := 100 + 5*DefaultParams().AdditiveIncrease; math.Abs(limit-want) > 1e-9 {
		t.Errorf("limit = %v, want %v (five probes)", limit, want)
	}
}

func TestSlackCounterResets(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	h.engine.applyLimit(h.src, Request{}, false, 50, true) // slack 1
	h.engine.applyLimit(h.src, Request{}, false, 99, true) // at limit: resets slack
	h.engine.applyLimit(h.src, Request{}, false, 50, true) // slack 1 again
	if _, ok := h.src.Limited(); !ok {
		t.Error("limit removed despite the slack streak being broken")
	}
}

// TestApplyLimitIdleVersusProbe pins the rate-limit rule's split: a
// flow more than β under its limit sheds the limit on the second idle
// round; a busy source, or one running at its limit, probes upward.
func TestApplyLimitIdleVersusProbe(t *testing.T) {
	step := DefaultParams().AdditiveIncrease
	tests := []struct {
		name string
		rate float64
		idle bool
		want [2]float64 // limit after rounds 1 and 2; -1 = removed
	}{
		{"under the limit and idle: removed after two rounds", 50, true, [2]float64{100, -1}},
		{"under the limit but busy: probes", 50, false, [2]float64{100 + step, 100 + 2*step}},
		{"at the limit and idle: probes", 95, true, [2]float64{100 + step, 100 + 2*step}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := newEngineHarness(t)
			h.src.SetLimit(100)
			for round, want := range tt.want {
				h.engine.applyLimit(h.src, Request{}, false, tt.rate, tt.idle)
				got := -1.0
				if l, ok := h.src.Limited(); ok {
					got = l
				}
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("round %d: limit %v, want %v", round+1, got, want)
				}
			}
			if s := h.engine.slack[0]; s != 0 {
				t.Errorf("slack streak %d left after a removal or probe", s)
			}
		})
	}
}

func TestApplyLimitLeavesDepartedFlowAlone(t *testing.T) {
	h := newEngineHarness(t)
	h.engine.slack[0] = 1
	h.src.Teardown()
	h.engine.applyLimit(h.src, Request{Reduce: true, Factor: 0.5}, true, 200, true)
	if _, ok := h.src.Limited(); ok {
		t.Error("limit installed on a departed flow")
	}
	if _, ok := h.engine.slack[0]; ok {
		t.Error("departed flow kept its slack streak")
	}
}

func TestTraceRecordsRounds(t *testing.T) {
	h := newEngineHarness(t)
	h.src.SetLimit(100)
	h.engine.apply(nil, []float64{100}, emptySnap())
	trace := h.engine.Trace()
	if len(trace) != 1 {
		t.Fatalf("trace rounds = %d, want 1", len(trace))
	}
	if len(trace[0].Rates) != 1 || trace[0].Rates[0] != 100 {
		t.Errorf("trace rates = %v", trace[0].Rates)
	}
	if math.IsInf(trace[0].Limits[0], 1) {
		t.Error("limit missing from trace")
	}
}

func TestEvaluateSourceConditionGeneratesRequests(t *testing.T) {
	h := newEngineHarness(t)
	// Craft a snapshot: virtual node 0_1 saturated; a local flow at
	// mu=100 and a buffer-saturated upstream link at mu=10. The engine
	// must ask the local flow down and the upstream primary up.
	snap := emptySnap()
	q := packet.QueueForDest(1)
	v := measure.VNodeID{Node: 0, Queue: q}
	snap.Saturated[v] = true
	snap.Omega[v] = 0.9
	up := &measure.VLinkState{
		Key:       forwarding.VLinkKey{From: 1, To: 0, Queue: q},
		Rate:      10,
		NormRate:  10,
		Primaries: map[packet.FlowID]topology.NodeID{5: 1},
		Type:      measure.BufferSaturated,
	}
	snap.VLinks[up.Key] = up
	snap.InsertUpstream(v, up)

	// The local flow's source must report mu=100: fabricate by running
	// a period at 100 pps.
	h.sched.Run(time.Millisecond)
	// flow.Source has no setter for normRate; drive via EndPeriod with a
	// synthetic count is not possible either. Instead rely on the
	// engine reading NormRate() == 0 for the local flow, making the
	// upstream link (mu=10) the L1 candidate: L1=10, S1=10 -> satisfied.
	// So instead give the upstream a big mu and check the reduce lands
	// on its primary flow 5.
	up.NormRate = 100
	up2 := &measure.VLinkState{
		Key:       forwarding.VLinkKey{From: 2, To: 0, Queue: q},
		Rate:      10,
		NormRate:  10,
		Primaries: map[packet.FlowID]topology.NodeID{6: 2},
		Type:      measure.BufferSaturated,
	}
	snap.VLinks[up2.Key] = up2
	snap.InsertUpstream(v, up2)

	reqs := h.engine.evaluate(snap)
	if req, ok := reqs[5]; !ok || !req.Reduce {
		t.Errorf("primary of the fat upstream link not reduced: %v", reqs)
	}
	if req, ok := reqs[6]; !ok || req.Reduce {
		t.Errorf("primary of the starved upstream link not increased: %v", reqs)
	}
	// Gap 100:10 exceeds HalveGap: expect halve/double.
	if reqs[5].Factor != 0.5 || reqs[6].Factor != 2 {
		t.Errorf("factors = %v / %v, want 0.5 / 2", reqs[5].Factor, reqs[6].Factor)
	}
}

func TestEvaluateBandwidthConditionGeneratesRequests(t *testing.T) {
	// Two contending links on the chain 0-1-2-3 (one clique): link (2,3)
	// bandwidth-saturated at mu=10 while link (0,1) carries mu=100.
	pos := []geom.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	routes := routing.Build(topo)
	node := forwarding.NewNode(0, sched, forwarding.DefaultConfig(), routes, nil, nil)
	specs := []flow.Spec{{ID: 0, Src: 0, Dst: 1, Weight: 1, DesiredRate: 800, SizeBytes: 1024}}
	reg, err := flow.NewRegistry(specs)
	if err != nil {
		t.Fatal(err)
	}
	reg.AttachSource(0, flow.NewSource(specs[0], sched, node, 4*time.Second, sim.NewRand(1)))
	medium := radio.NewMedium(sched, topo, radio.DefaultParams(), sim.NewRand(2))
	collector := measure.NewCollector([]*forwarding.Node{node}, medium, 0.25)
	engine, err := NewEngine(sched, topo, clique.Build(topo), reg, collector, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	snap := emptySnap()
	q1 := packet.QueueForDest(1)
	q3 := packet.QueueForDest(3)
	fat := &measure.VLinkState{
		Key:       forwarding.VLinkKey{From: 0, To: 1, Queue: q1},
		NormRate:  100,
		Primaries: map[packet.FlowID]topology.NodeID{0: 0},
		Type:      measure.BandwidthSaturated,
	}
	starved := &measure.VLinkState{
		Key:       forwarding.VLinkKey{From: 2, To: 3, Queue: q3},
		NormRate:  10,
		Primaries: map[packet.FlowID]topology.NodeID{7: 2},
		Type:      measure.BandwidthSaturated,
	}
	snap.VLinks[fat.Key] = fat
	snap.VLinks[starved.Key] = starved
	snap.WLinks[topology.Link{From: 0, To: 1}] = &measure.WLinkState{
		Link: topology.Link{From: 0, To: 1}, Occupancy: 0.4, NormRate: 100,
	}
	snap.WLinks[topology.Link{From: 2, To: 3}] = &measure.WLinkState{
		Link: topology.Link{From: 2, To: 3}, Occupancy: 0.3, NormRate: 10,
	}

	reqs := engine.evaluate(snap)
	if req, ok := reqs[0]; !ok || !req.Reduce {
		t.Errorf("clique-topping flow not reduced: %v", reqs)
	}
	if req, ok := reqs[7]; !ok || req.Reduce {
		t.Errorf("starved bandwidth-saturated flow not increased: %v", reqs)
	}
}
