package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"gmp"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"gmp/internal/sim.(*Scheduler).down":          "sim",
		"gmp/internal/radio.(*Medium).finish.func1":   "radio",
		"gmp/internal/geom.(*Grid).Near":              "",
		"gmp.RunContext.func3":                        "",
		"runtime.mallocgc":                            "",
		"gmp/internal/dissemination.(*Agent).Deliver": "dissemination",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProfileAttribution decodes a real CPU profile of a simulation and
// checks that the event kernel and the packet path receive samples.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := gmp.Config{Scenario: gmp.Fig4Scenario(), Protocol: gmp.ProtocolGMP, Duration: 100 * time.Second}
	if _, err := gmp.Run(cfg); err != nil {
		pprof.StopCPUProfile()
		t.Fatal(err)
	}
	pprof.StopCPUProfile()
	ls := layerSamples{}
	if err := ls.addProfile(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if ls.total() < 10 {
		t.Skipf("only %d samples", ls.total())
	}
	for _, l := range []string{"sim", "mac", "radio"} {
		if ls[l] == 0 {
			t.Errorf("no samples charged to %s: %v", l, ls)
		}
	}
}

func TestSequence(t *testing.T) {
	warmups := map[float64]int{}
	for c := 0; c < clients; c++ {
		a := newSequence(fig3Job, 7, c)
		b := newSequence(fig3Job, 7, c)
		own := map[float64]bool{}
		repeats := 0
		const n = 400
		for k := 0; k < n; k++ {
			j := a.job(k)
			if j != b.job(k) {
				t.Fatalf("client %d: position %d differs between sequences of one seed", c, k)
			}
			if j.warmupS < fig3Job.warmupLo || j.warmupS >= fig3Job.warmupHi {
				t.Fatalf("client %d: position %d: warm-up %v outside the shape's range", c, k, j.warmupS)
			}
			if !j.repeat {
				if prev, ok := warmups[j.warmupS]; ok {
					t.Fatalf("client %d: position %d: fresh warm-up %v already drawn by client %d", c, k, j.warmupS, prev)
				}
				warmups[j.warmupS] = c
				own[j.warmupS] = true
				continue
			}
			repeats++
			// own holds only the client's fresh specs before position k.
			if k%2 == 0 || !own[j.warmupS] {
				t.Fatalf("client %d: position %d repeats warm-up %v", c, k, j.warmupS)
			}
		}
		if repeats != n/2 {
			t.Fatalf("client %d: %d repeats in %d positions", c, repeats, n)
		}
	}
	if newSequence(fig3Job, 8, 0).job(0) == newSequence(fig3Job, 7, 0).job(0) {
		t.Fatal("different seeds gave the same first job")
	}
}
