package mac

import (
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// steadyClient is a Client that allocates nothing: it offers one
// renumbered copy of the same packet per grant and keeps only counters.
type steadyClient struct {
	pkt      packet.Packet
	nextHop  topology.NodeID
	grants   int // packets still to offer
	acked    int
	received int
	states   []packet.QueueState
}

func (c *steadyClient) NextOutgoing() (Outgoing, bool) {
	if c.grants == 0 {
		return Outgoing{}, false
	}
	c.grants--
	c.pkt.Seq++
	return Outgoing{Pkt: &c.pkt, NextHop: c.nextHop, Queue: packet.QueueForDest(c.pkt.Dst)}, true
}

func (c *steadyClient) OnSendComplete(_ Outgoing, ok bool) {
	if ok {
		c.acked++
	}
}

func (c *steadyClient) OnReceive(*packet.Packet, topology.NodeID) { c.received++ }

func (c *steadyClient) Piggyback(dst []packet.QueueState) []packet.QueueState {
	return append(dst, c.states...)
}

func (c *steadyClient) OnOverhear(topology.NodeID, []packet.QueueState) {}

func (c *steadyClient) AcceptQueue(packet.QueueID, topology.NodeID) bool { return true }

// TestExchangeAllocs pins the MAC's frame path at zero allocations: once
// warm, a complete RTS/CTS/DATA/ACK exchange between two stations
// reuses the stations' own frames, piggyback arrays, bound callbacks,
// scheduler slots and transmission records.
func TestExchangeAllocs(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	states := []packet.QueueState{{Queue: 1, Free: true}, {Queue: 4, Free: false}}
	tx := &steadyClient{pkt: *pkt(0, 0, 1, 0), nextHop: 1, states: states}
	rx := &steadyClient{states: states}
	h.stations[0].client = tx
	h.stations[1].client = rx

	exchange := func() {
		tx.grants = 1
		h.stations[0].Kick()
		h.sched.Run(h.sched.Now() + 20*time.Millisecond)
	}
	for i := 0; i < 16; i++ {
		exchange()
	}
	const runs = 200
	if avg := testing.AllocsPerRun(runs, exchange); avg != 0 {
		t.Errorf("an RTS/CTS/DATA/ACK exchange allocates %.2f objects, want 0", avg)
	}
	if want := 16 + runs + 1; tx.acked != want || rx.received != want {
		t.Fatalf("acked %d, received %d, want %d exchanges", tx.acked, rx.received, want)
	}
	if st := h.stations[0].Stats(); st.RTSSent != st.DataSent || st.Retries != 0 {
		t.Fatalf("exchanges were not clean RTS/CTS/DATA/ACK: %+v", st)
	}
}
