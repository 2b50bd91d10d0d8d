package radio

import (
	"math/rand"
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/sim"
	"gmp/internal/topology"
)

// fullScan is the differential oracle for Transmit's interference
// marking: a shadow of every in-flight frame's corruption set, kept by
// the all-pairs scan the medium used before it skipped distant senders.
// Before each transmission it marks, against every in-flight frame, the
// mutual interference and the half-duplex loss; afterwards each frame's
// corruption bitset in the medium must equal its shadow, and every
// delivery must report ok exactly when the shadow is clear at the
// receiver and the receiver is not on the air.
type fullScan struct {
	t      *testing.T
	sched  *sim.Scheduler
	topo   *topology.Topology
	m      *Medium
	shadow map[int64][]bool // frame ID -> corrupted at node
	heard  map[int64][]bool // frame ID -> delivered to node
	frames int
	marks  int // shadow corruption marks, to show the test collides
	kept   int // in-flight frames at a transmission, counted over all
	near   int // of which within the interference reach
}

type fullScanStation struct {
	id topology.NodeID
	o  *fullScan
}

func (fullScanStation) OnBusy() {}
func (fullScanStation) OnIdle() {}
func (s fullScanStation) OnFrame(f *Frame, ok bool) {
	o := s.o
	sh, live := o.shadow[f.ID]
	if !live {
		o.t.Fatalf("node %d got frame %d, which is not on the air", s.id, f.ID)
	}
	if o.heard[f.ID][s.id] {
		o.t.Fatalf("node %d got frame %d twice", s.id, f.ID)
	}
	o.heard[f.ID][s.id] = true
	if want := !sh[s.id] && !o.m.Transmitting(s.id); ok != want {
		o.t.Fatalf("frame %d from %d at node %d: ok=%v, full scan says %v", f.ID, f.From, s.id, ok, want)
	}
}

// quietStation ignores every channel event.
type quietStation struct{}

func (quietStation) OnBusy()              {}
func (quietStation) OnIdle()              {}
func (quietStation) OnFrame(*Frame, bool) {}

func newFullScan(t *testing.T, pos []geom.Point, cfg topology.Config) *fullScan {
	t.Helper()
	topo, err := topology.New(pos, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sched := sim.NewScheduler()
	o := &fullScan{
		t:      t,
		sched:  sched,
		topo:   topo,
		m:      NewMedium(sched, topo, DefaultParams(), sim.NewRand(1)),
		shadow: make(map[int64][]bool),
		heard:  make(map[int64][]bool),
	}
	for _, id := range topo.Nodes() {
		o.m.Register(id, fullScanStation{id: id, o: o})
	}
	return o
}

// transmit puts f on the air from src through the medium and the
// oracle, then compares every in-flight frame's corruption set.
func (o *fullScan) transmit(src topology.NodeID, f *Frame) {
	n := o.topo.NumNodes()
	fresh := make([]bool, n)
	reachSq := interferenceReachSq(o.topo.Config())
	for _, other := range o.m.active {
		old := o.shadow[other.frame.ID]
		o.kept++
		if geom.DistSq(o.topo.Position(src), o.topo.Position(other.src)) <= reachSq {
			o.near++
		}
		for _, r := range o.topo.Neighbors(src) {
			if r == other.src || o.topo.InCSRange(other.src, r) {
				fresh[r] = true
			}
		}
		for _, r := range o.topo.Neighbors(other.src) {
			if r == src || o.topo.InCSRange(src, r) {
				old[r] = true
			}
		}
	}
	for _, other := range o.m.active {
		if o.topo.InTxRange(other.src, src) {
			o.shadow[other.frame.ID][src] = true
		}
	}
	o.m.Transmit(src, f)
	o.shadow[f.ID] = fresh
	o.heard[f.ID] = make([]bool, n)
	o.frames++

	for _, tx := range o.m.active {
		sh := o.shadow[tx.frame.ID]
		for r := range sh {
			if got := tx.isCorrupted(topology.NodeID(r)); got != sh[r] {
				o.t.Fatalf("frame %d from %d at node %d: corrupted=%v, full scan says %v", tx.frame.ID, tx.src, r, got, sh[r])
			}
		}
	}

	// Scheduled after the end-of-air event at the same instant, so it
	// runs once the medium has delivered the frame.
	id, end := f.ID, o.sched.Now()+o.m.Airtime(f)
	o.sched.At(end, func() {
		for _, r := range o.topo.Neighbors(src) {
			if !o.heard[id][r] {
				o.t.Fatalf("frame %d from %d never reached neighbor %d", id, src, r)
			}
		}
		for _, c := range o.shadow[id] {
			if c {
				o.marks++
			}
		}
		delete(o.shadow, id)
		delete(o.heard, id)
	})
}

// drive schedules transmission attempts from random nodes, many of them
// concurrent, with random node moves in between, and runs them.
func (o *fullScan) drive(rng *rand.Rand, attempts int, span time.Duration, moves int, side float64) {
	n := o.topo.NumNodes()
	for i := 0; i < attempts; i++ {
		src := topology.NodeID(rng.Intn(n))
		kind := FrameKind(1 + rng.Intn(int(FrameBroadcast)))
		payload := 64 + rng.Intn(1024)
		o.sched.At(time.Duration(rng.Int63n(int64(span))), func() {
			if o.m.Transmitting(src) {
				return
			}
			f := &Frame{Kind: kind, To: Broadcast, LinkFrom: src, LinkTo: src}
			if nbrs := o.topo.Neighbors(src); kind != FrameBroadcast && len(nbrs) > 0 {
				f.To = nbrs[rng.Intn(len(nbrs))]
				f.LinkFrom, f.LinkTo = src, f.To
			} else {
				f.Kind = FrameBroadcast
				f.ControlBytes = payload
			}
			if f.Kind == FrameData {
				f.Data = &packet.Packet{Src: src, Dst: f.To, SizeBytes: payload}
			}
			o.transmit(src, f)
		})
	}
	for i := 0; i < moves; i++ {
		o.sched.At(time.Duration(rng.Int63n(int64(span))), func() {
			var ids []topology.NodeID
			var to []geom.Point
			for _, id := range rng.Perm(n)[:1+rng.Intn(n/4)] {
				p := o.topo.Position(topology.NodeID(id))
				if rng.Intn(4) == 0 { // a jump across the area
					p = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
				} else {
					p.X += (rng.Float64() - 0.5) * 200
					p.Y += (rng.Float64() - 0.5) * 200
				}
				ids = append(ids, topology.NodeID(id))
				to = append(to, p)
			}
			o.m.BeginTopologyChange()
			diff, err := o.topo.MoveNodes(ids, to)
			if err != nil {
				o.t.Fatal(err)
			}
			o.m.EndTopologyChange(diff.OldLinks)
		})
	}
	o.sched.Run(span + 10*time.Millisecond)
	if len(o.shadow) != 0 {
		o.t.Fatalf("%d frames never finished", len(o.shadow))
	}
}

// TestInterferenceMatchesFullScan checks Transmit's distance-filtered
// interference marking against the all-pairs scan it replaced, frame by
// frame, on random layouts with many concurrent transmitters and node
// moves between transmissions, for carrier-sense ranges equal to and
// beyond the transmission range, and on lines whose spacing puts
// senders exactly at the interference reach. A carrier-sense range
// below the transmission range is rejected by topology.New, so the
// medium never sees one.
func TestInterferenceMatchesFullScan(t *testing.T) {
	if _, err := topology.New([]geom.Point{{}, {X: 100}}, topology.Config{TxRange: 250, CSRange: 200}); err == nil {
		t.Fatal("topology accepted a carrier-sense range below the transmission range; cover it here")
	}
	var frames, marks, kept, near int
	tally := func(o *fullScan) {
		frames, marks, kept, near = frames+o.frames, marks+o.marks, kept+o.kept, near+o.near
	}
	for _, cs := range []float64{250, 333.3, 400, 700} {
		cfg := topology.Config{TxRange: 250, CSRange: cs}
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			const nodes, side = 120, 3000.0
			pos := make([]geom.Point, nodes)
			for i := range pos {
				pos[i] = geom.Point{X: rng.Float64() * side, Y: rng.Float64() * side}
			}
			o := newFullScan(t, pos, cfg)
			o.drive(rng, 6000, 300*time.Millisecond, 20, side)
			tally(o)
		}
		// Gaps alternating TxRange and CSRange: a sender's receiver is
		// within CSRange of the node after it, so senders two apart sit
		// exactly at the interference reach TxRange + CSRange.
		var line []geom.Point
		x := 0.0
		for i := 0; i < 40; i++ {
			line = append(line, geom.Point{X: x})
			if i%2 == 0 {
				x += cfg.TxRange
			} else {
				x += cs
			}
		}
		o := newFullScan(t, line, cfg)
		o.drive(rand.New(rand.NewSource(9)), 3000, 100*time.Millisecond, 0, 0)
		tally(o)
	}
	t.Logf("%d frames, %d corruption marks; %d of %d in-flight pairs within reach", frames, marks, near, kept)
	if marks == 0 || near == 0 || near == kept {
		t.Fatal("the layouts exercised no collisions, or no distant pairs for the filter to skip")
	}
}

// BenchmarkMediumDeliveryCity measures the medium at city density: a
// 2000-node grid at 200 m spacing with 20 senders spread across it, all
// on the air at once, each sending one data frame to a neighbor per
// iteration. The senders are kilometers apart, so none interferes with
// another; the per-frame cost should not grow with how many of them
// are in flight.
func BenchmarkMediumDeliveryCity(b *testing.B) {
	const cols, rows, spacing = 50, 40, 200.0
	pos := make([]geom.Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pos = append(pos, geom.Point{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	topo, err := topology.New(pos, topology.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sched := sim.NewScheduler()
	m := NewMedium(sched, topo, DefaultParams(), sim.NewRand(1))
	for _, id := range topo.Nodes() {
		m.Register(id, quietStation{})
	}
	var frames []*Frame
	for r := 2; r < rows; r += 10 {
		for c := 2; c < cols; c += 10 {
			src := topology.NodeID(r*cols + c)
			f := dataFrame(src, src+1)
			frames = append(frames, f)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range frames {
			m.Transmit(f.LinkFrom, f)
		}
		sched.Run(sched.Now() + 2*time.Millisecond)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(frames)), "ns/frame")
}
