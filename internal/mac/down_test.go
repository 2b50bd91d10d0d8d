package mac

import (
	"testing"
	"time"
)

import "gmp/internal/geom"

// TestSetDownStopsStation crashes a station mid-stream: the in-flight
// packet is handed back failed, nothing further is transmitted, frames
// addressed to it go unanswered, and recovery resumes pulling.
func TestSetDownStopsStation(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	for i := 0; i < 20; i++ {
		h.clients[0].outgoing = append(h.clients[0].outgoing, Outgoing{Pkt: pkt(0, 0, 1, int64(i)), NextHop: 1})
	}
	h.stations[0].Kick()
	h.sched.Run(20 * time.Millisecond) // a few exchanges complete

	sentBefore := h.stations[0].Stats().DataSent
	if sentBefore == 0 {
		t.Fatal("no traffic before the crash")
	}
	h.stations[0].SetDown(true)
	if !h.stations[0].Down() {
		t.Fatal("Down not reported")
	}
	// The packet the MAC held (if any) must have come back failed so the
	// forwarding layer can purge it with the rest of the buffers.
	for i, ok := range h.clients[0].results {
		if !ok && i < len(h.clients[0].completed) && h.clients[0].completed[i].Pkt == nil {
			t.Error("failed completion without a packet")
		}
	}

	h.sched.Run(100 * time.Millisecond)
	if got := h.stations[0].Stats().DataSent; got != sentBefore {
		t.Errorf("down station transmitted: DataSent %d -> %d", sentBefore, got)
	}

	// Kick is ignored while down.
	h.stations[0].Kick()
	h.sched.Run(150 * time.Millisecond)
	if got := h.stations[0].Stats().DataSent; got != sentBefore {
		t.Error("Kick restarted a down station")
	}

	// Recovery pulls the remaining queue and drains it.
	h.stations[0].SetDown(false)
	h.sched.Run(2 * time.Second)
	if h.stations[0].Down() {
		t.Error("still down after SetDown(false)")
	}
	if got := h.stations[0].Stats().DataSent; got <= sentBefore {
		t.Error("recovered station did not resume transmitting")
	}
	if len(h.clients[0].outgoing) != 0 {
		t.Errorf("%d packets never pulled after recovery", len(h.clients[0].outgoing))
	}
}

// TestSetDownDropsBroadcastsAndIgnoresQueueing verifies control
// broadcasts queued before a crash are abandoned and ones queued while
// down are refused.
func TestSetDownDropsBroadcastsAndIgnoresQueueing(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.stations[0].SetDown(true)
	h.stations[0].QueueBroadcast("payload", 64)
	h.sched.Run(time.Second)
	if got := h.stations[0].Stats().Broadcasts; got != 0 {
		t.Errorf("down station broadcast %d frames", got)
	}
	if len(h.clients[1].overheard) != 0 {
		t.Error("neighbor overheard a frame from a down node")
	}

	h.stations[0].SetDown(false)
	h.stations[0].QueueBroadcast("payload", 64)
	h.sched.Run(2 * time.Second)
	if got := h.stations[0].Stats().Broadcasts; got != 1 {
		t.Errorf("recovered station broadcasts = %d, want 1", got)
	}
}

// TestSetDownIdempotent double-crashes and double-revives; both must be
// no-ops rather than corrupting phase state.
func TestSetDownIdempotent(t *testing.T) {
	h := newMACHarness(t, []geom.Point{{X: 0}, {X: 200}}, DefaultConfig())
	h.stations[0].SetDown(true)
	h.stations[0].SetDown(true)
	if !h.stations[0].Down() {
		t.Error("not down after double SetDown(true)")
	}
	h.stations[0].SetDown(false)
	h.stations[0].SetDown(false)
	if h.stations[0].Down() {
		t.Error("down after double SetDown(false)")
	}
	// Station still works.
	h.clients[0].outgoing = []Outgoing{{Pkt: pkt(0, 0, 1, 0), NextHop: 1}}
	h.stations[0].Kick()
	h.sched.Run(100 * time.Millisecond)
	if len(h.clients[1].received) != 1 {
		t.Error("exchange failed after idempotent down/up cycles")
	}
}
