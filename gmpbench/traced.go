package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
	"time"

	"gmp"
	"gmp/internal/obs"
	"gmp/internal/span"
)

// runTraced measures the per-layer metrics. It interleaves untraced
// sessions with traced ones (telemetry and spans on, CPU profile
// running), alternating which goes first in each pair; the untraced
// half gives the modelled counts and the Go runtime deltas, the traced
// half the CPU shares and the modelled waits, and the pair medians the
// tracing overhead. Layer microbenchmarks run on the workload's own
// topology, and gmpd is driven with the workload's job shape so the
// service metrics exist on every workload.
func (w *workload) runTraced(env *runEnv, rep *report) error {
	cfg, err := w.session(env.seed)
	if err != nil {
		return err
	}
	var setup setupTimes
	if err := setup.measure(cfg, 10, 500*time.Millisecond); err != nil {
		return err
	}
	rep.setN("topology.build_ms", 1e3*median(setup.topology), len(setup.topology))
	rep.setN("clique.build_ms", 1e3*median(setup.clique), len(setup.clique))
	rep.setN("routing.rows_ms", 1e3*median(setup.routing), len(setup.routing))
	rep.setN("maxminref.solve_ms", 1e3*median(setup.maxmin), len(setup.maxmin))

	budget := env.budget()
	shape, err := w.job()
	if err != nil {
		return err
	}
	if w.viaService {
		// The service workload splits its budget: half drives gmpd,
		// half profiles an in-process replica of its fresh job.
		if err := serviceLayer(env, rep, shape, loadPlan{budget: budget / 2}); err != nil {
			return err
		}
		budget -= budget / 2
	}

	runtime.GC()
	w.warmUp(cfg, rep)
	traced := cfg
	traced.Telemetry = &gmp.TelemetryConfig{}
	traced.Spans = &gmp.SpanConfig{}
	var plain, spanned []session
	var reference *session
	var mem memDelta
	samples := layerSamples{}
	deadline := time.Now().Add(budget)
	for pair := 0; pair == 0 || time.Now().Before(deadline); pair++ {
		for half := 0; half < 2; half++ {
			var s session
			var err error
			if (pair+half)%2 == 0 {
				s, err = runMeasured(cfg, &mem)
			} else {
				s, err = runProfiled(traced, samples)
			}
			if err != nil {
				rep.check(fmt.Errorf("traced-run session: %w", err))
				continue
			}
			if reference == nil {
				reference = &s
				rep.check(nil)
			} else {
				rep.check(sameOutputs("traced-run session", *reference, s))
			}
			if s.res.Spans != nil {
				spanned = append(spanned, s)
			} else {
				plain = append(plain, s)
			}
		}
	}
	if len(plain) == 0 || len(spanned) == 0 {
		return fmt.Errorf("traced run completed %d untraced and %d traced sessions: %v", len(plain), len(spanned), rep.problems)
	}

	total := samples.total()
	for _, l := range append(cpuLayers, "runtime") {
		rep.setN(l+".cpu_share", finite(float64(samples[l])/float64(total)), int(total))
	}
	rep.setN("trace.overhead_frac", 1-median(fpsOf(spanned))/median(fpsOf(plain)), len(spanned))
	reportWaits(rep, spanned[0].res)
	reportCounts(rep, plain[0].res, spanned[0].res)

	var frames int64
	for _, s := range plain {
		frames += s.frames()
	}
	n := float64(len(plain))
	rep.setN("gc.allocs_per_frame", float64(mem.mallocs)/float64(frames), len(plain))
	rep.setN("gc.bytes_per_frame", float64(mem.bytes)/float64(frames), len(plain))
	rep.setN("gc.cycles", float64(mem.cycles)/n, len(plain))
	rep.setN("gc.pause_ms", ms(mem.pause)/n, len(plain))

	rep.set("sim.timer_ns", timerNS(timerDepth(cfg)))
	topo, err := cfg.Scenario.Topology()
	if err != nil {
		return err
	}
	ns, err := deliveryNS(topo)
	if err != nil {
		return err
	}
	rep.set("radio.delivery_ns", ns)

	if !w.viaService {
		// A fixed probe: eight fresh jobs of the workload's shape and
		// eight repeats.
		return serviceLayer(env, rep, shape, loadPlan{jobs: 16})
	}
	return nil
}

// runProfiled runs one traced session under the CPU profiler and adds
// its samples to ls.
func runProfiled(cfg gmp.Config, ls layerSamples) (session, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return session{}, err
	}
	s, err := runSession(cfg)
	pprof.StopCPUProfile()
	if err != nil {
		return s, err
	}
	return s, ls.addProfile(buf.Bytes())
}

func fpsOf(sessions []session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = float64(s.frames()) / s.wall.Seconds()
	}
	return out
}

// reportWaits sets the modelled per-hop waits of the sampled packets
// that were delivered, and the end-to-end latency percentiles over all
// flows, in simulated milliseconds.
func reportWaits(rep *report, res *gmp.Result) {
	var queue, backoff, deferred, air time.Duration
	hops := 0
	for f := range res.Flows {
		for _, path := range span.CriticalPaths(res.Spans, gmp.FlowID(f)) {
			if path.Outcome != "delivered" {
				continue
			}
			for _, h := range path.Hops {
				queue += h.Queue
				backoff += h.Backoff
				deferred += h.Defer
				air += h.Airtime
				hops++
			}
		}
	}
	perHop := func(d time.Duration) float64 { return finite(ms(d) / float64(hops)) }
	rep.setN("forwarding.queue_wait_ms", perHop(queue), hops)
	rep.setN("mac.backoff_ms", perHop(backoff), hops)
	rep.setN("mac.defer_ms", perHop(deferred), hops)
	rep.setN("radio.airtime_ms", perHop(air), hops)

	lat := mergedLatency(res.Telemetry)
	rep.setN("flow.latency_p50_ms", ms(lat.Quantile(0.50)), int(lat.Count))
	rep.setN("flow.latency_p99_ms", ms(lat.Quantile(0.99)), int(lat.Count))
}

// mergedLatency folds every flow's delivery-latency histogram into one.
func mergedLatency(t *gmp.Telemetry) obs.Histogram {
	h := obs.NewHistogram()
	for _, f := range t.Flows {
		l := f.Latency
		if l.Count == 0 {
			continue
		}
		for i, c := range l.Counts {
			h.Counts[i] += c
		}
		if h.Count == 0 || l.Min < h.Min {
			h.Min = l.Min
		}
		if l.Max > h.Max {
			h.Max = l.Max
		}
		h.Count += l.Count
		h.Sum += l.Sum
	}
	return h
}

// reportCounts sets the modelled counts of one untraced session; the
// limit changes come from the traced twin's telemetry, which the output
// checks hold identical to it.
func reportCounts(rep *report, res, traced *gmp.Result) {
	ch := res.Channel
	rep.set("radio.frames", float64(ch.Transmissions))
	rep.set("radio.corrupt_frac", finite(float64(ch.Corrupted)/float64(ch.Corrupted+ch.Delivered)))
	var retries, data, drops int64
	for _, m := range res.MAC {
		retries += m.Retries
		data += m.DataSent
		drops += m.Drops
	}
	rep.set("mac.retries_per_data", finite(float64(retries)/float64(data)))
	rep.set("mac.retry_drops", float64(drops))
	var overflow int64
	for _, f := range res.Flows {
		overflow += f.DropsByReason[gmp.DropOverflow]
	}
	rep.set("forwarding.overflow_drops", float64(overflow))
	rep.set("core.limit_changes", float64(len(traced.Telemetry.Limits)))
	rep.set("metrics.imm", res.Imm)
	rep.set("metrics.u_pps", res.U)
}
