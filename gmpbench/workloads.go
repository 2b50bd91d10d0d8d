package main

import (
	"bytes"
	"hash/fnv"
	"sort"
	"time"

	"gmp"
)

// runEnv carries one invocation's arguments.
type runEnv struct {
	seed    int64
	seconds float64
	traced  bool
	gmpd    string
}

// budget is the measurement time of one run.
func (e *runEnv) budget() time.Duration {
	return time.Duration(e.seconds * float64(time.Second))
}

// workload is one input set of the benchmark. Every workload has an
// in-process session (the library path) and a gmpd job shape (the
// service path); which of the two the end-to-end metrics come from is
// set by viaService. The traced run measures both, so every per-layer
// metric exists on every workload.
type workload struct {
	// session derives the in-process session from the workload seed.
	session func(seed int64) (gmp.Config, error)
	// warmup caps the simulated length of the untimed session that
	// precedes timing (the first session in a process runs slower).
	warmup time.Duration
	// job builds the gmpd job shape; the job sequence over it derives
	// from the workload seed.
	job func() (jobShape, error)
	// viaService takes the end-to-end metrics from a closed loop of
	// gmpd clients instead of in-process sessions.
	viaService bool
}

var workloads = map[string]*workload{
	// Kernel-bound: the paper's Table 4 topology under central GMP for
	// full 400-s sessions; small heap, sub-millisecond static build.
	"fig4-gmp": {
		session: func(seed int64) (gmp.Config, error) {
			return gmp.Config{
				Scenario: gmp.Fig4Scenario(),
				Protocol: gmp.ProtocolGMP,
				Seed:     derive(seed, "sim"),
			}, nil
		},
		warmup: 400 * time.Second,
		job: func() (jobShape, error) {
			return jobShape{scenarioName: "fig4", protocol: "gmp", durationS: 20, warmupLo: 5, warmupHi: 15}, nil
		},
	},
	// Scale-bound: a 2000-node city under the §6 distributed runtime for
	// 30-s sessions; large heap, topology lookups and agents show here.
	"city2000-dist": {
		session: func(seed int64) (gmp.Config, error) {
			sc, err := cityScenario()
			if err != nil {
				return gmp.Config{}, err
			}
			return gmp.Config{
				Scenario: sc,
				Protocol: gmp.ProtocolGMPDistributed,
				Duration: 30 * time.Second,
				Seed:     derive(seed, "sim"),
			}, nil
		},
		warmup: 5 * time.Second,
		job: func() (jobShape, error) {
			sc, err := cityScenario()
			if err != nil {
				return jobShape{}, err
			}
			var buf bytes.Buffer
			if err := gmp.SaveScenario(&buf, sc); err != nil {
				return jobShape{}, err
			}
			return jobShape{inline: buf.Bytes(), protocol: "gmp-dist", durationS: 2, warmupLo: 0.5, warmupHi: 1.5}, nil
		},
	},
	// Service-bound: 60-s fig3 GMP jobs through gmpd from two
	// closed-loop clients, half of them repeats that the result cache
	// answers without simulating.
	"gmpd-fig3": {
		session: func(seed int64) (gmp.Config, error) {
			return fig3Job.config(newSequence(fig3Job, seed, 0).spec(0).warmupS)
		},
		warmup: 60 * time.Second,
		job: func() (jobShape, error) {
			return fig3Job, nil
		},
		viaService: true,
	},
}

var fig3Job = jobShape{scenarioName: "fig3", protocol: "gmp", durationS: 60, warmupLo: 20, warmupHi: 40}

// cityLayout fixes the city's street grid, gateways and clients. Layouts
// drawn from different seeds differ in offered load by up to twice, far
// more than any bound on the timing metrics could absorb, so the
// workload seed varies the simulation's randomness on one layout.
const cityLayout = 1

func cityScenario() (gmp.Scenario, error) {
	return gmp.CityScenario(2000, 8, 24, 220, cityLayout)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// derive maps the workload seed to an independent positive seed per
// purpose, so the scenario, the simulation and the job sequence each
// get their own stream.
func derive(seed int64, purpose string) int64 {
	h := fnv.New64a()
	h.Write([]byte(purpose))
	x := uint64(seed) ^ h.Sum64()
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x>>33) + 1
}

func (w *workload) run(env *runEnv, rep *report) error {
	if env.traced {
		return w.runTraced(env, rep)
	}
	if w.viaService {
		return w.runServiceE2E(env, rep)
	}
	return w.runSessionsE2E(env, rep)
}
