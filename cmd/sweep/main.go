// Command sweep runs a one-dimensional parameter sweep over repeated
// simulations and writes the results as CSV, ready for plotting. It
// automates the ablation studies listed in DESIGN.md and the resilience
// sweeps of the fault parameters.
//
// The whole value × seed grid executes through the parallel experiment
// runner (gmp.RunMany): -parallel sets the worker count (default all
// CPUs) and results are byte-identical whatever that count is. By
// default the CSV has one row per run; -ci aggregates the seeds of each
// parameter value into one row of mean and Student-t 95% confidence
// half-width columns.
//
// Usage:
//
//	sweep -scenario fig3 -param beta -values 0.05,0.1,0.2 -seeds 5
//	sweep -scenario fig4 -param additive -values 2,4,8 -out fig4_additive.csv
//	sweep -scenario fig3 -param loss -values 0,0.01,0.05 -protocol gmp
//	sweep -scenario fig3 -param beta -values 0.05,0.1 -seeds 16 -ci -parallel 8
//	sweep -scenario fig3 -mobility random-waypoint -param speed -values 1,5,10,20
//	sweep -scenario fig3 -churn poisson -admit 40 -param lambda -values 0.2,0.5,1,2 -ci
//	sweep -scenario fig3 -param outage -values 0,0.25,0.5,1 -seeds 8 -ci
//	sweep -scenario fig3 -param linkloss -values 0,0.2,0.4 -ci
//
// -scenario takes any name of the scenario registry (gmp.NamedScenario).
// Supported parameters: beta, period_s, additive, omega, queue, loss,
// with -mobility set — speed (pins both speed bounds to the value), and
// with -churn set — lambda (the churn arrival rate in flows/s; churn
// runs add admitted/rejected/shed columns and report min_rate over the
// static flows only, since refused arrivals deliver nothing by design).
//
// Two fault parameters take a value v in [0,1], with v = 0 the
// fault-free baseline. Both act from the warmup boundary W = D/2 of a
// run of length D, and both hit a fixed target:
//
//   - outage: node 1 crashes at W and is revived after v·(D−W)/2.
//   - linkloss: link 1→2 loses frames with probability min(v, 0.99)
//     from W to W+(D−W)/2.
//
// Fault sweeps add the run's recovery: per-run rows get recovered and
// recovery_s (blank when the trace never re-settled), and -ci rows get
// recovered_frac plus recovery_s with its CI95 over the recovered runs.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"gmp"
	"gmp/internal/prof"
	"gmp/internal/stats"
)

// The fixed targets of the fault parameters.
const (
	outageNode       = 1
	lossFrom, lossTo = 1, 2
	maxLinkLoss      = 0.99 // loss probabilities live in (0,1)
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	pf := prof.Register(fs)
	scenarioName := fs.String("scenario", "fig3", "scenario: "+strings.Join(gmp.ScenarioNames(), "|"))
	protocolName := fs.String("protocol", "gmp", "protocol: gmp|gmp-dist|802.11|2pp|bp|bp-shared")
	param := fs.String("param", "beta", "parameter to sweep: beta|period_s|additive|omega|queue|loss|speed|lambda|outage|linkloss (outage crashes node 1, linkloss degrades link 1->2)")
	mobModel := fs.String("mobility", "", "move nodes during every run: random-waypoint|random-walk|group")
	churnProc := fs.String("churn", "", "overlay a dynamic flow workload on every run: poisson|diurnal")
	admitShare := fs.Float64("admit", 0, "churn admission control: minimum weighted per-flow share (pkt/s; 0 = admit everything)")
	values := fs.String("values", "0.05,0.10,0.20", "comma-separated parameter values")
	seeds := fs.Int("seeds", 3, "seeds per value")
	duration := fs.Duration("duration", 400*time.Second, "session length")
	parallel := fs.Int("parallel", 0, "concurrent simulations (0 = all CPUs, 1 = serial)")
	ci := fs.Bool("ci", false, "aggregate seeds: one row per value with mean and 95% CI columns")
	timeout := fs.Duration("timeout", 0, "per-run wall-clock timeout (0 = none)")
	out := fs.String("out", "", "CSV output path (default stdout)")
	telemetry := fs.String("telemetry", "", "record per-run telemetry; write one summary JSON line per run to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	stopProf, err := pf.Start()
	if err != nil {
		return err
	}
	defer stopProf()

	sc, err := gmp.NamedScenario(*scenarioName)
	if err != nil {
		return err
	}
	protocol, _, err := gmp.ParseProtocol(*protocolName)
	if err != nil {
		return err
	}
	vals, err := parseValues(*values)
	if err != nil {
		return err
	}
	if *seeds < 1 {
		return fmt.Errorf("need at least one seed")
	}
	if *parallel < 0 {
		return fmt.Errorf("negative parallelism %d", *parallel)
	}

	mob, err := baseMobility(*mobModel)
	if err != nil {
		return err
	}
	if *param == "speed" && mob == nil {
		return fmt.Errorf("the speed parameter needs -mobility")
	}
	ch, err := baseChurn(*churnProc, *admitShare)
	if err != nil {
		return err
	}
	if *param == "lambda" && ch == nil {
		return fmt.Errorf("the lambda parameter needs -churn")
	}

	// Build the full value × seed grid, then fan it out in one batch so
	// the worker pool stays busy across value boundaries.
	var cfgs []gmp.Config
	for _, v := range vals {
		for seed := 1; seed <= *seeds; seed++ {
			cfg := gmp.Config{
				Scenario: sc,
				Protocol: protocol,
				Duration: *duration,
				Seed:     int64(seed),
			}
			if mob != nil {
				m := *mob
				cfg.Mobility = &m
			}
			if ch != nil {
				c := *ch
				if c.Admission != nil {
					a := *c.Admission
					c.Admission = &a
				}
				cfg.Churn = &c
			}
			if err := applyParam(&cfg, *param, v); err != nil {
				return err
			}
			if *telemetry != "" {
				cfg.Telemetry = &gmp.TelemetryConfig{}
			}
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := gmp.RunMany(context.Background(), cfgs, gmp.RunManyOptions{
		Workers: *parallel,
		Timeout: *timeout,
	})
	if err != nil {
		return err
	}
	g := grid{
		scenario: sc.Name, protocol: protocol.String(), param: *param,
		vals: vals, seeds: *seeds, results: results,
		fault: *param == "outage" || *param == "linkloss",
	}
	if ch != nil {
		g.staticN = len(sc.Flows)
	}
	if *telemetry != "" {
		if err := g.writeTelemetrySummaries(*telemetry); err != nil {
			return err
		}
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil {
				fmt.Fprintln(os.Stderr, "sweep: closing output:", cerr)
			}
		}()
		w = f
	}
	cw := csv.NewWriter(w)
	if *ci {
		err = g.writeAggregated(cw)
	} else {
		err = g.writePerRun(cw)
	}
	if err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

// grid holds a finished sweep: results[vi*seeds+seed-1] is the run of
// vals[vi] at that seed.
type grid struct {
	scenario, protocol, param string
	vals                      []float64
	seeds                     int
	// staticN is the scenario's static flow count under churn, else 0.
	staticN int
	// fault marks a fault parameter, whose rows report recovery.
	fault   bool
	results []*gmp.Result
}

// writeTelemetrySummaries emits one JSON line per run: the sweep grid
// coordinates plus the run's telemetry summary (latency percentiles,
// condition counts, final bottleneck per flow).
func (g grid) writeTelemetrySummaries(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for vi, v := range g.vals {
		for seed := 1; seed <= g.seeds; seed++ {
			res := g.results[vi*g.seeds+seed-1]
			if res == nil || res.Telemetry == nil {
				continue
			}
			line := struct {
				Param   string               `json:"param"`
				Value   float64              `json:"value"`
				Seed    int                  `json:"seed"`
				Summary gmp.TelemetrySummary `json:"summary"`
			}{g.param, v, seed, res.Telemetry.Summarize()}
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}

// minRate returns the smallest end-of-run rate that the row should
// report. Static runs take the minimum over every flow; churn runs
// (staticN > 0) take it over the static prefix only — refused or
// departed arrivals deliver nothing by design and would always pin the
// column to zero.
func minRate(res *gmp.Result, staticN int) float64 {
	rates := res.Rates
	if staticN > 0 && staticN <= len(rates) {
		rates = rates[:staticN]
	}
	min := rates[0]
	for _, r := range rates {
		if r < min {
			min = r
		}
	}
	return min
}

// writePerRun emits the historical one-row-per-run format. Churn runs
// (staticN > 0) append the admission counters to every row, and fault
// sweeps append the recovery outcome.
func (g grid) writePerRun(cw *csv.Writer) error {
	header := []string{"scenario", "protocol", "param", "value", "seed", "i_mm", "i_eq", "u_pps", "min_rate_pps"}
	if g.staticN > 0 {
		header = append(header, "arrivals", "admitted", "rejected", "shed")
	}
	if g.fault {
		header = append(header, "recovered", "recovery_s")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for vi, v := range g.vals {
		for seed := 1; seed <= g.seeds; seed++ {
			res := g.results[vi*g.seeds+seed-1]
			row := []string{
				g.scenario, g.protocol, g.param,
				strconv.FormatFloat(v, 'g', -1, 64),
				strconv.Itoa(seed),
				fmt.Sprintf("%.4f", res.Imm),
				fmt.Sprintf("%.4f", res.Ieq),
				fmt.Sprintf("%.2f", res.U),
				fmt.Sprintf("%.2f", minRate(res, g.staticN)),
			}
			if g.staticN > 0 {
				c := res.Churn
				row = append(row,
					strconv.Itoa(c.Arrivals), strconv.Itoa(c.Admitted),
					strconv.Itoa(c.Rejected), strconv.Itoa(c.Shed))
			}
			if g.fault {
				recovery := ""
				if res.Recovered {
					recovery = fmt.Sprintf("%.2f", res.RecoveryTime.Seconds())
				}
				row = append(row, strconv.FormatBool(res.Recovered), recovery)
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeAggregated emits one row per parameter value: across-seed means
// with Student-t 95% confidence half-widths of each per-run scalar.
// Fault sweeps append the fraction of runs whose post-fault trace
// re-settled and the recovery time over those runs.
func (g grid) writeAggregated(cw *csv.Writer) error {
	header := []string{
		"scenario", "protocol", "param", "value", "seeds",
		"i_mm", "i_mm_ci95", "i_eq", "i_eq_ci95",
		"u_pps", "u_pps_ci95", "min_rate_pps", "min_rate_ci95",
	}
	prec := []string{"%.4f", "%.4f", "%.2f", "%.2f"}
	if g.staticN > 0 {
		header = append(header,
			"arrivals", "arrivals_ci95", "admitted", "admitted_ci95",
			"rejected", "rejected_ci95", "shed", "shed_ci95")
		prec = append(prec, "%.2f", "%.2f", "%.2f", "%.2f")
	}
	if g.fault {
		header = append(header, "recovered_frac", "recovery_s", "recovery_s_ci95")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for vi, v := range g.vals {
		block := g.results[vi*g.seeds : (vi+1)*g.seeds]
		cols := make([][]float64, len(prec))
		var rec []float64
		for _, res := range block {
			xs := []float64{res.Imm, res.Ieq, res.U, minRate(res, g.staticN)}
			if g.staticN > 0 {
				c := res.Churn
				xs = append(xs, float64(c.Arrivals), float64(c.Admitted), float64(c.Rejected), float64(c.Shed))
			}
			for j, x := range xs {
				cols[j] = append(cols[j], x)
			}
			if res.Recovered {
				rec = append(rec, res.RecoveryTime.Seconds())
			}
		}
		row := []string{
			g.scenario, g.protocol, g.param,
			strconv.FormatFloat(v, 'g', -1, 64),
			strconv.Itoa(len(block)),
		}
		for j, xs := range cols {
			s := stats.Summarize(xs)
			row = append(row, fmt.Sprintf(prec[j], s.Mean), fmt.Sprintf(prec[j], s.CI95))
		}
		if g.fault {
			s := stats.Summarize(rec)
			row = append(row,
				fmt.Sprintf("%.2f", float64(len(rec))/float64(len(block))),
				fmt.Sprintf("%.2f", s.Mean), fmt.Sprintf("%.2f", s.CI95))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	return nil
}

func parseValues(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	vals := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		vals = append(vals, v)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("no values")
	}
	return vals, nil
}

func applyParam(cfg *gmp.Config, param string, v float64) error {
	switch param {
	case "beta":
		cfg.Beta = v
	case "period_s":
		cfg.Period = time.Duration(v * float64(time.Second))
	case "additive":
		cfg.AdditiveIncrease = v
	case "omega":
		cfg.OmegaThreshold = v
	case "queue":
		cfg.QueueSlots = int(v)
	case "loss":
		cfg.LossProb = v
	case "speed":
		// baseMobility guarantees cfg.Mobility is set on this path.
		cfg.Mobility.MinSpeed = v
		cfg.Mobility.MaxSpeed = v
	case "lambda":
		// baseChurn guarantees cfg.Churn is set on this path.
		cfg.Churn.Rate = v
	case "outage", "linkloss":
		if v < 0 || v > 1 {
			return fmt.Errorf("%s value %v outside [0,1]", param, v)
		}
		if cfg.Duration <= 0 {
			return fmt.Errorf("the %s parameter needs a positive -duration", param)
		}
		if v == 0 {
			return nil
		}
		// Faults start at Config's default warmup, which sweep keeps.
		warmup := cfg.Duration / 2
		if param == "outage" {
			back := warmup + time.Duration(v*0.5*float64(cfg.Duration-warmup))
			cfg.Faults = []gmp.FaultEvent{
				{At: warmup, Kind: gmp.FaultNodeDown, Node: outageNode},
				{At: back, Kind: gmp.FaultNodeUp, Node: outageNode},
			}
		} else {
			restore := warmup + (cfg.Duration-warmup)/2
			cfg.Faults = []gmp.FaultEvent{
				{At: warmup, Kind: gmp.FaultLinkDegrade, From: lossFrom, To: lossTo, LossProb: min(v, maxLinkLoss)},
				{At: restore, Kind: gmp.FaultLinkRestore, From: lossFrom, To: lossTo},
			}
		}
	default:
		return fmt.Errorf("unknown parameter %q", param)
	}
	return nil
}

// baseMobility returns the sweep's shared mobility template: the chosen
// model at a 2 s epoch with speeds 1-10 m/s (overridden per value by the
// speed parameter) on the placement-derived field.
func baseMobility(model string) (*gmp.MobilityConfig, error) {
	if model == "" {
		return nil, nil
	}
	m, err := gmp.ParseMobilityModel(model)
	if err != nil {
		return nil, err
	}
	cfg := &gmp.MobilityConfig{
		Model:    m,
		Epoch:    2 * time.Second,
		MinSpeed: 1,
		MaxSpeed: 10,
	}
	if m == gmp.MobilityGroup {
		cfg.Groups = 2
		cfg.GroupRadius = 100
	}
	return cfg, nil
}

// baseChurn returns the sweep's shared churn template: the chosen
// arrival process over random node pairs at λ = 0.5/s (overridden per
// value by the lambda parameter) with mid-sized bounded-Pareto flows,
// and optional admission control when -admit is set.
func baseChurn(process string, admitShare float64) (*gmp.ChurnConfig, error) {
	if admitShare < 0 {
		return nil, fmt.Errorf("negative -admit %v", admitShare)
	}
	if process == "" {
		if admitShare != 0 {
			return nil, fmt.Errorf("-admit requires -churn")
		}
		return nil, nil
	}
	p, err := gmp.ParseChurnProcess(process)
	if err != nil {
		return nil, err
	}
	cfg := &gmp.ChurnConfig{
		Process:     p,
		Rate:        0.5,
		Matrix:      gmp.ChurnRandom,
		MinSizePkts: 4000,
		MaxSizePkts: 40000,
	}
	if admitShare > 0 {
		cfg.Admission = &gmp.AdmissionParams{MinShare: admitShare}
	}
	return cfg, nil
}
