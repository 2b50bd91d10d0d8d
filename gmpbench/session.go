package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"time"

	"gmp"
	"gmp/internal/baseline"
	"gmp/internal/clique"
	"gmp/internal/maxminref"
	"gmp/internal/radio"
	"gmp/internal/routing"
	"gmp/internal/scenario"
)

// session is one timed gmp.Run call.
type session struct {
	wall        time.Duration
	res         *gmp.Result
	fingerprint string
}

func (s session) frames() int64 { return s.res.Channel.Transmissions }

func runSession(cfg gmp.Config) (session, error) {
	start := time.Now()
	res, err := gmp.Run(cfg)
	wall := time.Since(start)
	if err != nil {
		return session{}, err
	}
	return session{wall: wall, res: res, fingerprint: fingerprint(res)}, nil
}

// fingerprint hashes every simulated statistic a repeat at the same seed
// must reproduce: the indices, per-flow outcomes, and the channel and
// MAC counters. Floats print in shortest round-trip form, so equal
// fingerprints mean bit-equal values.
func fingerprint(res *gmp.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "imm=%v ieq=%v u=%v\n", res.Imm, res.Ieq, res.U)
	for _, f := range res.Flows {
		fmt.Fprintf(h, "flow %d rate=%v hops=%d delivered=%d dropped=%d limit=%v\n",
			f.Spec.ID, f.Rate, f.Hops, f.Delivered, f.Dropped, f.Limit)
	}
	fmt.Fprintf(h, "channel %+v\n", res.Channel)
	for i, m := range res.MAC {
		fmt.Fprintf(h, "mac %d %+v\n", i, m)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sameOutputs checks a repeat session against the first one at the
// same seed.
func sameOutputs(what string, first, repeat session) error {
	if repeat.fingerprint != first.fingerprint {
		return fmt.Errorf("%s: simulated statistics differ from the first session at the same seed (imm %v vs %v, frames %d vs %d)",
			what, repeat.res.Imm, first.res.Imm, repeat.frames(), first.frames())
	}
	return nil
}

// warmUp runs the untimed session that precedes timing. The first
// session in a process runs measurably slower (heap growth, cold
// caches), so no timed figure includes it.
func (w *workload) warmUp(cfg gmp.Config, rep *report) {
	warm := cfg
	if warm.Duration == 0 {
		warm.Duration = 400 * time.Second
	}
	if w.warmup < warm.Duration {
		warm.Duration = w.warmup
		warm.Warmup = w.warmup / 2
	}
	_, err := runSession(warm)
	if err != nil {
		err = fmt.Errorf("warm-up session: %w", err)
	}
	rep.check(err)
}

// runSessionsE2E measures the end-to-end metrics of a library workload:
// repeated untraced sessions at the one seed the workload seed derives,
// until the budget is spent.
func (w *workload) runSessionsE2E(env *runEnv, rep *report) error {
	cfg, err := w.session(env.seed)
	if err != nil {
		return err
	}
	w.warmUp(cfg, rep)

	// The static build is timed in a short round after the warm-up and
	// after every session, so its median samples the host over the whole
	// run, as the session timings do, rather than over one half-second.
	var setup setupTimes
	var sessions []session
	deadline := time.Now().Add(env.budget())
	for first := true; first || time.Now().Before(deadline); first = false {
		if err := setup.measure(cfg, 2, 50*time.Millisecond); err != nil {
			return err
		}
		runtime.GC()
		s, err := runSession(cfg)
		if err != nil {
			rep.check(fmt.Errorf("session: %w", err))
			continue
		}
		if len(sessions) > 0 {
			rep.check(sameOutputs("session", sessions[0], s))
		} else {
			rep.check(nil)
		}
		sessions = append(sessions, s)
	}
	if err := setup.measure(cfg, 2, 50*time.Millisecond); err != nil {
		return err
	}
	if len(sessions) == 0 {
		return fmt.Errorf("no session completed: %v", rep.problems)
	}
	rep.setN("setup_s", median(setup.total), len(setup.total))
	reportSessions(rep, cfg, sessions)
	rss, err := peakRSSMB("self")
	if err != nil {
		return err
	}
	rep.set("peak_rss_mb", rss)
	return nil
}

// reportSessions sets the throughput and latency metrics of a set of
// identical sessions.
func reportSessions(rep *report, cfg gmp.Config, sessions []session) {
	simDur := cfg.Duration
	if simDur == 0 {
		simDur = 400 * time.Second
	}
	var fps, sps, walls []float64
	var total float64
	for _, s := range sessions {
		w := s.wall.Seconds()
		fps = append(fps, float64(s.frames())/w)
		sps = append(sps, simDur.Seconds()/w)
		walls = append(walls, w)
		total += w
	}
	n := len(sessions)
	rep.setN("frames_per_s", median(fps), n)
	rep.setN("simsec_per_s", median(sps), n)
	rep.setN("job_p50_s", median(walls), n)
	rep.setN("job_p90_s", quantile(walls, 0.9), n)
	rep.setN("jobs_per_s", float64(n)/total, n)
	rep.set("imm", sessions[0].res.Imm)
	rep.set("u_pps", sessions[0].res.U)
}

// setupTimes holds the static build's timings, one entry per repetition,
// in seconds.
type setupTimes struct {
	total    []float64 // topology + cliques + routing rows: what Run builds before simulating
	topology []float64
	clique   []float64
	routing  []float64
	maxmin   []float64 // reference allocation (Run solves it after the session)
}

// measure adds repetitions of the static build to st, timed through the
// same public calls Run makes: at least minReps and until d has gone, at
// most 200. Each repetition starts from a collected heap, so a
// collection left over from the previous one is not charged to it.
func (st *setupTimes) measure(cfg gmp.Config, minReps int, d time.Duration) error {
	capacity := radio.DefaultParams().SaturationRate(packetBytes(cfg.Scenario), !cfg.DisableRTS)
	refFlows := make([]maxminref.FlowSpec, len(cfg.Scenario.Flows))
	for i, f := range cfg.Scenario.Flows {
		refFlows[i] = maxminref.FlowSpec{Src: f.Src, Dst: f.Dst, Weight: f.Weight, Demand: f.DesiredRate}
	}
	start := time.Now()
	for rep := 0; rep < 200 && (rep < minReps || time.Since(start) < d); rep++ {
		runtime.GC()
		t0 := time.Now()
		topo, err := cfg.Scenario.Topology()
		if err != nil {
			return fmt.Errorf("building topology: %w", err)
		}
		t1 := time.Now()
		cliques := clique.Build(topo)
		t2 := time.Now()
		routes := routing.BuildLazy(topo)
		for _, f := range cfg.Scenario.Flows {
			if routes.HopCount(f.Src, f.Dst) <= 0 {
				return fmt.Errorf("flow %d has no route", f.ID)
			}
		}
		t3 := time.Now()
		problem, err := maxminref.BuildProblem(refFlows, routes, cliques, baseline.UniformCliqueCapacity(capacity))
		if err != nil {
			return fmt.Errorf("reference allocation: %w", err)
		}
		if _, err := problem.Solve(); err != nil {
			return fmt.Errorf("reference allocation: %w", err)
		}
		t4 := time.Now()
		st.topology = append(st.topology, t1.Sub(t0).Seconds())
		st.clique = append(st.clique, t2.Sub(t1).Seconds())
		st.routing = append(st.routing, t3.Sub(t2).Seconds())
		st.total = append(st.total, t3.Sub(t0).Seconds())
		st.maxmin = append(st.maxmin, t4.Sub(t3).Seconds())
	}
	return nil
}

// packetBytes mirrors Run's capacity estimate: the largest packet size
// among the flows, at least the default.
func packetBytes(sc gmp.Scenario) int {
	size := scenario.DefaultPacketBytes
	for _, f := range sc.Flows {
		if f.SizeBytes > size {
			size = f.SizeBytes
		}
	}
	return size
}

// memDelta accumulates Go runtime counters across sessions.
type memDelta struct {
	mallocs, bytes, cycles uint64
	pause                  time.Duration
}

func (d *memDelta) add(before, after *runtime.MemStats) {
	d.mallocs += after.Mallocs - before.Mallocs
	d.bytes += after.TotalAlloc - before.TotalAlloc
	d.cycles += uint64(after.NumGC - before.NumGC)
	d.pause += time.Duration(after.PauseTotalNs - before.PauseTotalNs)
}

// runMeasured runs one session with runtime counters read around it.
func runMeasured(cfg gmp.Config, d *memDelta) (session, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := runSession(cfg)
	runtime.ReadMemStats(&after)
	if err == nil {
		d.add(&before, &after)
	}
	return s, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// finite replaces a NaN (no samples) by zero so the JSON line stays
// valid.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
