package mac

import (
	"testing"
	"time"

	"gmp/internal/geom"
	"gmp/internal/packet"
	"gmp/internal/topology"
)

// broadcastClient extends fakeClient with broadcast reception.
type broadcastClient struct {
	*fakeClient
	broadcasts []any
	from       []topology.NodeID
}

func (c *broadcastClient) OnBroadcast(from topology.NodeID, payload any) {
	c.broadcasts = append(c.broadcasts, payload)
	c.from = append(c.from, from)
}

func TestBroadcastDelivery(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}, {X: 100, Y: 150}}, DefaultConfig())
	rx1 := &broadcastClient{fakeClient: h.clients[1]}
	rx2 := &broadcastClient{fakeClient: h.clients[2]}
	h.stations[1].client = rx1
	h.stations[2].client = rx2

	h.stations[0].QueueBroadcast("hello", 20)
	h.sched.Run(100 * time.Millisecond)

	for i, rx := range []*broadcastClient{rx1, rx2} {
		if len(rx.broadcasts) != 1 || rx.broadcasts[0] != "hello" {
			t.Fatalf("receiver %d: broadcasts = %v", i+1, rx.broadcasts)
		}
		if rx.from[0] != 0 {
			t.Errorf("receiver %d: from = %d, want 0", i+1, rx.from[0])
		}
	}
	if got := h.stations[0].Stats().Broadcasts; got != 1 {
		t.Errorf("broadcast count = %d", got)
	}
}

func TestBroadcastHasNoRetries(t *testing.T) {
	// A broadcast with no receivers in range must complete without
	// retries or drops (group-addressed frames are fire-and-forget).
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 1000}}, DefaultConfig())
	h.stations[0].QueueBroadcast(42, 8)
	h.sched.Run(100 * time.Millisecond)
	st := h.stations[0].Stats()
	if st.Broadcasts != 1 || st.Retries != 0 || st.Drops != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBroadcastPriorityOverData(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	rx := &broadcastClient{fakeClient: h.clients[1]}
	h.stations[1].client = rx
	// Data first, then a broadcast before the MAC starts: the broadcast
	// (control priority) must be transmitted first.
	h.clients[0].outgoing = []Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].QueueBroadcast("ctl", 8)
	h.sched.Run(time.Second)
	if len(rx.broadcasts) != 1 {
		t.Fatal("broadcast lost")
	}
	if len(rx.fakeClient.received) != 1 {
		t.Fatal("data packet lost")
	}
}

func TestBroadcastClientWithoutReceiverInterface(t *testing.T) {
	// A client that does not implement BroadcastReceiver must simply not
	// see broadcasts (no panic).
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.stations[0].QueueBroadcast(1, 8)
	h.sched.Run(100 * time.Millisecond)
	if h.medium.Stats().ControlFrames != 1 {
		t.Error("control frame not accounted")
	}
}

func TestBroadcastCarriesPiggyback(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.clients[0].states = []packet.QueueState{{Queue: 3, Free: false}}
	h.stations[0].QueueBroadcast(1, 8)
	h.sched.Run(100 * time.Millisecond)
	got, ok := h.clients[1].overheard[0]
	if !ok || len(got) != 1 || got[0].Queue != 3 {
		t.Errorf("piggyback on broadcast = %v", got)
	}
}
