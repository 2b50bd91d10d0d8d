package gmp

import (
	"runtime"
	"testing"
)

// TestFramePathAllocs pins the frame path's garbage. A full 400-s
// fig4 GMP session with telemetry and spans off may allocate at most
// 0.2 objects per frame put on the air: the event heap, MAC frames,
// piggyback snapshots and queues reuse their storage, so what remains
// is one packet per admission at its source plus the per-period
// protocol work.
func TestFramePathAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("full 400-s session")
	}
	cfg := Config{Scenario: Fig4Scenario(), Protocol: ProtocolGMP, Seed: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	frames := res.Channel.Transmissions
	perFrame := float64(after.Mallocs-before.Mallocs) / float64(frames)
	t.Logf("%d frames, %.3f allocs and %.1f B per frame", frames, perFrame, float64(after.TotalAlloc-before.TotalAlloc)/float64(frames))
	if perFrame > 0.2 {
		t.Errorf("%.3f allocs per frame, want at most 0.2", perFrame)
	}
}
