// Command gmpbench is the repository benchmark. It drives the GMP
// simulator through its public API and the gmpd service over loopback
// HTTP, checks that every output it measures is correct, and prints the
// metrics declared in BENCHMARK.json.
//
// Run it from the repository root through the wrapper, which builds this
// program and gmpd from source first:
//
//	bash gmpbench/run.sh --workload fig4-gmp --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// every end-to-end metric; with --trace 1 it holds every per-layer
// metric, measured in a separate run that enables telemetry, spans and a
// CPU profile. The lines before it repeat the figures in readable form,
// with sample counts and the figures that the JSON line has no room for.
//
// --span-ab runs the span-overhead comparison instead: interleaved
// pairs of fig4-gmp sessions with causal spans on and off.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metricDecl is one metric entry of BENCHMARK.json.
type metricDecl struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchDecl is the part of BENCHMARK.json the program reads: the metric
// names it must emit and their units.
type benchDecl struct {
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadDecl(path string) (*benchDecl, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDecl
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// report accumulates one invocation's outcome: every measured figure by
// name, plus the attempted/failed tally of operations whose outputs were
// checked.
type report struct {
	values    map[string]float64
	counts    map[string]int // sample count behind a value, when it has one
	attempted int
	failed    int
	problems  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, counts: map[string]int{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) setN(name string, v float64, n int) {
	r.values[name] = v
	r.counts[name] = n
}

// check records one checked operation; a non-nil err counts it failed.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.problems = append(r.problems, err.Error())
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the readable table and then the JSON result line holding
// exactly the declared metrics. A declared metric the run did not
// measure is an error: the result would not be what BENCHMARK.json
// promises.
func (r *report) emit(w io.Writer, declared []metricDecl) error {
	units := map[string]string{}
	for _, d := range declared {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		unit := units[n]
		if unit == "" {
			unit = extraUnits[n]
		}
		line := fmt.Sprintf("%-28s %14.6g %s", n, r.values[n], unit)
		if c, ok := r.counts[n]; ok {
			line += fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Fprintln(w, line)
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-28s %14.6g ratio  (%d of %d)\n", "failed_frac", failedFrac, r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintln(w, "check failed:", p)
	}

	res := jsonResult{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]jsonMetric{},
	}
	var missing []string
	for _, d := range declared {
		v, ok := r.values[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		res.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics declared in BENCHMARK.json but not measured: %v", missing)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// extraUnits names the units of figures printed only in the readable
// table (BENCHMARK.json declares the rest).
var extraUnits = map[string]string{
	"imm":       "index",
	"u_pps":     "pkt/s",
	"job_p90_s": "s",
	"hit_p50_s": "s",
	// gmpd answered /result with "running" after closing the telemetry
	// stream (retried at once; see runJob).
	"gmpd.result_not_ready": "count",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gmpbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gmpbench", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed         = fs.Int64("seed", 1, "workload seed; every input of the run derives from it")
		seconds      = fs.Float64("seconds", 20, "measurement budget in seconds")
		trace        = fs.Int("trace", 0, "0: end-to-end metrics (untraced); 1: per-layer metrics (traced run)")
		gmpdPath     = fs.String("gmpd", "", "gmpd binary built from cmd/gmpd")
		spanAB       = fs.Bool("span-ab", false, "compare fig4-gmp sessions with causal spans on and off instead")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *spanAB {
		return spanOverheadAB(stdout, *seed)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	decl, err := loadDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	w, ok := workloads[*workloadName]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *workloadName, workloadNames())
	}
	if *gmpdPath == "" {
		return errors.New("--gmpd is required (run through gmpbench/run.sh, which builds it)")
	}
	if _, err := os.Stat(*gmpdPath); err != nil {
		return fmt.Errorf("gmpd binary: %w", err)
	}
	env := &runEnv{seed: *seed, seconds: *seconds, traced: *trace == 1, gmpd: *gmpdPath}
	rep := newReport()
	if err := w.run(env, rep); err != nil {
		return err
	}
	declared := decl.EndToEnd
	if env.traced {
		declared = decl.PerLayer
	}
	return rep.emit(stdout, declared)
}
