// The §5.3 condition logic shared by the central Engine and the
// distributed Agents. Each runtime gathers its inputs its own way — the
// engine from a network-wide measurement snapshot, an agent from its
// own meters and the two-hop state disseminated to it — and hands them
// to the same functions. What stays runtime-specific is deliberate: the
// agents judge clique toppedness with a doubled tolerance and answer
// flooded violations with receiver-side rules, because their two-hop
// view is a dissemination round stale; the engine marks overloaded
// cliques for the admission watchdog.

package core

import (
	"math"

	"gmp/internal/clique"
	"gmp/internal/flow"
	"gmp/internal/measure"
	"gmp/internal/obs"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// eq reports β-equality (§6.3): a and b differ by at most Beta of the
// larger magnitude.
func (p Params) eq(a, b float64) bool {
	m := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= p.Beta*m
}

// reqSet aggregates adjustment requests per flow.
type reqSet map[packet.FlowID]Request

// add folds req into the set by §6.3's control-packet rule: any
// reduction overrides all increases, the largest reduction and the
// smallest increase win.
func (r reqSet) add(f packet.FlowID, req Request) {
	cur, ok := r[f]
	switch {
	case !ok,
		req.Reduce && (!cur.Reduce || req.Factor < cur.Factor),
		!req.Reduce && !cur.Reduce && req.Factor < cur.Factor:
		r[f] = req
	}
}

// conditions is the per-runtime state the shared condition code works
// on. The central engine holds one; every distributed agent holds its
// own.
type conditions struct {
	params Params
	// pending are the aggregated requests awaiting the next adjustment.
	pending reqSet
	// slack counts consecutive rounds a flow ran under its limit with an
	// idle source queue; the limit is removed only after two, so a
	// single noisy period cannot unleash a burst.
	slack map[packet.FlowID]int

	// probe observes which condition generated each request and every
	// applied limit change; spans also receive the decision provenance
	// (bottleneck clique and occupancy figures).
	probe obs.Probe
}

func newConditions(params Params) conditions {
	return conditions{params: params, pending: make(reqSet), slack: make(map[packet.FlowID]int)}
}

// forget drops a departed flow's pending request and slack streak: flow
// IDs are never reused, but the maps would otherwise grow without bound
// under sustained churn.
func (c *conditions) forget(f packet.FlowID) {
	delete(c.slack, f)
	delete(c.pending, f)
}

// record logs that cond, tested at node, generated req for flow f.
// cliqueID, occ and maxOcc carry the bandwidth condition's provenance
// for the span recorder (zero for the other conditions).
func (c *conditions) record(f packet.FlowID, node topology.NodeID, cond obs.Condition, req Request, cliqueID string, occ []float64, maxOcc float64) {
	c.probe.Telemetry.Condition(f, node, cond, req.Reduce, req.Factor)
	c.probe.Spans.Condition(f, node, cond.String(), req.Reduce, req.Factor, cliqueID, occ, maxOcc)
}

// localFlow is a flow sourced at the virtual node under test, as the
// source condition reads it.
type localFlow struct {
	id packet.FlowID
	// mu is the flow's normalized rate over the last period (0 before
	// its first completed period).
	mu      float64
	limited bool
}

// sourceBuffer tests §5.3's source and buffer-saturated conditions at
// one saturated virtual node, given its upstream virtual links and its
// local flows: the largest normalized rate L1 feeding the node must
// β-equal the smallest, S1, among its local flows and buffer-saturated
// upstream links. On a violation it emits a reduce for every flow at L1
// (the primaries of the upstream links carrying it, and the local flows
// running at it) and an increase for every flow at S1 (the primaries of
// the buffer-saturated upstream links, and the limited local flows).
// The step halves and doubles when L1 exceeds HalveGap·S1, and is ±β
// otherwise. cond is the source condition at a node hosting flow
// sources and the buffer-saturated one at a pure relay; via is the
// upstream link whose primary the request targets (nil for a local
// flow). Local flows without a completed period are ignored.
func (p Params) sourceBuffer(ups []*measure.VLinkState, locals []localFlow, emit func(f packet.FlowID, req Request, cond obs.Condition, via *measure.VLinkState)) {
	l1, s1 := 0.0, math.Inf(1)
	for _, ul := range ups {
		if ul.NormRate > l1 {
			l1 = ul.NormRate
		}
		if ul.Type == measure.BufferSaturated && ul.NormRate > 0 && ul.NormRate < s1 {
			s1 = ul.NormRate
		}
	}
	for _, lf := range locals {
		if lf.mu == 0 {
			continue
		}
		if lf.mu > l1 {
			l1 = lf.mu
		}
		if lf.mu < s1 {
			s1 = lf.mu
		}
	}
	if math.IsInf(s1, 1) || l1 == 0 || p.eq(s1, l1) {
		return // nothing to equalize, or already equal
	}
	down, up := Request{Reduce: true, Factor: 1 - p.Beta}, Request{Factor: 1 + p.Beta}
	if l1 > p.HalveGap*s1 {
		down.Factor, up.Factor = 0.5, 2
	}
	cond := obs.CondBuffer
	if len(locals) > 0 {
		cond = obs.CondSource
	}
	for _, ul := range ups {
		if p.eq(ul.NormRate, l1) {
			for f := range ul.Primaries {
				emit(f, down, cond, ul)
			}
		}
		if ul.Type == measure.BufferSaturated && p.eq(ul.NormRate, s1) {
			for f := range ul.Primaries {
				emit(f, up, cond, ul)
			}
		}
	}
	for _, lf := range locals {
		if lf.mu == 0 {
			continue
		}
		if p.eq(lf.mu, l1) {
			emit(lf.id, down, cond, nil)
		}
		if lf.limited && p.eq(lf.mu, s1) {
			emit(lf.id, up, cond, nil)
		}
	}
}

// saturatedCliques selects the saturated cliques among the owners of a
// wireless link: those whose channel occupancy β-equals the largest
// (§6.3). occupancy reads one link's occupancy over both directions.
// It also returns every owner's occupancy and their maximum, the
// selection's provenance.
func (p Params) saturatedCliques(owners []*clique.Clique, occupancy func(topology.Link) float64) (sat []*clique.Clique, occ []float64, maxOcc float64) {
	occ = make([]float64, len(owners))
	for i, c := range owners {
		for _, l := range c.Links {
			occ[i] += occupancy(l)
		}
		if occ[i] > maxOcc {
			maxOcc = occ[i]
		}
	}
	for i, c := range owners {
		if p.eq(occ[i], maxOcc) {
			sat = append(sat, c)
		}
	}
	return sat, occ, maxOcc
}

// maxOver returns the largest value read over links (0 when empty).
func maxOver(links []topology.Link, read func(topology.Link) float64) float64 {
	best := 0.0
	for _, l := range links {
		if v := read(l); v > best {
			best = v
		}
	}
	return best
}

// idleOmega is the source-queue full fraction below which a limit
// counts as untouched. A queue full even a modest fraction of the time
// (below the Ω classification threshold) already throttles the source
// below its limit, which must not be mistaken for low demand.
const idleOmega = 0.05

// applyLimit hands a flow's aggregated request (has reports whether one
// arrived) to its source, rate being the flow's rate over the period
// just ended. Without a request it runs the rate-limit condition (§5.3
// c4): a limited flow probes upward by the additive step, and a limit
// that is not binding is removed after two consecutive slack rounds.
// Not binding means the flow ran more than β under the limit while idle,
// the runtime's verdict that the source queue is not touching it, holds:
// a backpressured source running below its limit is congested, not
// undemanding, and removing its limit would let it burst past its peers
// the moment congestion eases. A departed flow is left alone: its final
// partial period can still show a nonzero rate, and a limit installed
// on it would persist forever.
func (c *conditions) applyLimit(src *flow.Source, req Request, has bool, rate float64, idle bool) {
	spec := src.Spec()
	f := spec.ID
	if src.Stopped() {
		delete(c.slack, f)
		return
	}
	limit, limited := src.Limited()
	// before/after feed the limit timelines; -1 encodes "no limit"
	// (JSON-encodable, unlike +Inf).
	before := -1.0
	if limited {
		before = limit
	}
	var action obs.LimitAction
	switch {
	case has && req.Reduce:
		base := rate
		if limited && limit < base {
			base = limit
		}
		src.SetLimit(base * req.Factor)
		action = obs.ActionReduce
	case has:
		if limited {
			src.SetLimit(limit * req.Factor)
			action = obs.ActionIncrease
		}
	case limited && rate < limit*(1-c.params.Beta) && idle:
		c.slack[f]++
		if c.slack[f] >= 2 {
			src.RemoveLimit()
			c.slack[f] = 0
			action = obs.ActionRemove
		}
	case limited:
		c.slack[f] = 0
		src.SetLimit(limit + c.params.AdditiveIncrease)
		action = obs.ActionProbe
	}
	if action == "" {
		return
	}
	after := -1.0
	if l, ok := src.Limited(); ok {
		after = l
	}
	c.probe.Telemetry.LimitChange(f, action, before, after)
	if action == obs.ActionProbe || action == obs.ActionRemove {
		// The rate-limit condition itself fired: the limit probes
		// upward or is shed.
		factor := 0.0
		if action == obs.ActionProbe && before > 0 && after > 0 {
			factor = after / before
		}
		c.probe.Telemetry.Condition(f, spec.Src, obs.CondRateLimit, false, factor)
	}
	c.probe.Spans.LimitChange(f, spec.Src, string(action), before, after)
}
