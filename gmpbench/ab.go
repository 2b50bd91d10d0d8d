package main

import (
	"fmt"
	"io"

	"gmp"
)

// spanOverheadAB compares fig4-gmp sessions with causal spans on (the
// default 1-in-64 stride, telemetry off) and off, in ten interleaved
// pairs that alternate which arm runs first (the fewest the rule below
// accepts). It applies the benchmark's rule
// for a difference: one arm wins at least nine tenths of the pairs and
// the medians differ by more than the spans-off arm's interquartile
// range. Otherwise the difference is within noise.
func spanOverheadAB(w io.Writer, seed int64) error {
	cfg, err := workloads["fig4-gmp"].session(seed)
	if err != nil {
		return err
	}
	rep := newReport()
	workloads["fig4-gmp"].warmUp(cfg, rep)
	on := cfg
	on.Spans = &gmp.SpanConfig{}
	var reference *session
	var offFPS, onFPS []float64
	onWins := 0
	const pairs = 10
	for p := 0; p < pairs; p++ {
		var fps [2]float64 // off, on
		for half := 0; half < 2; half++ {
			arm := (p + half) % 2
			run := cfg
			if arm == 1 {
				run = on
			}
			s, err := runSession(run)
			if err != nil {
				return err
			}
			if reference == nil {
				reference = &s
			} else if err := sameOutputs("span A/B session", *reference, s); err != nil {
				return err
			}
			fps[arm] = float64(s.frames()) / s.wall.Seconds()
		}
		offFPS = append(offFPS, fps[0])
		onFPS = append(onFPS, fps[1])
		if fps[1] > fps[0] {
			onWins++
		}
		fmt.Fprintf(w, "pair %2d  spans off %9.0f frames/s  spans on %9.0f frames/s\n", p+1, fps[0], fps[1])
	}
	offMed, onMed := median(offFPS), median(onFPS)
	offIQR := quantile(offFPS, 0.75) - quantile(offFPS, 0.25)
	fmt.Fprintf(w, "spans off: median %.0f frames/s, quartiles %.0f..%.0f\n", offMed, quantile(offFPS, 0.25), quantile(offFPS, 0.75))
	fmt.Fprintf(w, "spans on:  median %.0f frames/s, quartiles %.0f..%.0f\n", onMed, quantile(onFPS, 0.25), quantile(onFPS, 0.75))
	fmt.Fprintf(w, "overhead: %.1f%% of the spans-off median; spans-off faster in %d of %d pairs\n",
		100*(1-onMed/offMed), pairs-onWins, pairs)
	offWins := pairs - onWins
	diff := offMed - onMed
	switch {
	case 10*offWins >= 9*pairs && diff > offIQR:
		fmt.Fprintln(w, "verdict: spans cost measurable throughput (not within noise)")
	case 10*onWins >= 9*pairs && -diff > offIQR:
		fmt.Fprintln(w, "verdict: spans-on ran faster (not within noise)")
	default:
		fmt.Fprintln(w, "verdict: within noise")
	}
	return nil
}
