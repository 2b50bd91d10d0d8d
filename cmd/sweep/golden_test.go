package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// checkGolden runs the sweep with args and compares its CSV byte for
// byte with testdata/name.
func checkGolden(t *testing.T, name string, args []string) {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("CSV differs from %s (re-run with -update after intended changes):\n got: %q\nwant: %q",
			path, buf.String(), want)
	}
}

// TestGoldenCSV pins the sweep's byte-exact CSV, run through the
// parallel executor: worker scheduling must not leak into the output,
// and the underlying simulations must stay bit-deterministic.
func TestGoldenCSV(t *testing.T) {
	checkGolden(t, "fig3_beta_parallel.golden", []string{
		"-scenario", "fig3", "-protocol", "gmp",
		"-param", "beta", "-values", "0.05,0.10",
		"-seeds", "2", "-duration", "30s", "-parallel", "4",
	})
}

// TestGoldenCSVFaults pins the aggregated CSV of both fault parameters,
// alone and under a churn overlay with admission control. The 48 s runs
// never re-settle after the fault, so a 120 s linkloss sweep pins
// non-zero recovery columns.
func TestGoldenCSVFaults(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig3_outage.golden", []string{"-scenario", "fig3", "-param", "outage", "-values", "0,0.5"}},
		{"fig3_linkloss.golden", []string{"-scenario", "fig3", "-param", "linkloss", "-values", "0,0.4"}},
		{"grid23_outage_churn.golden", []string{"-scenario", "grid23", "-param", "outage", "-values", "0,0.5", "-churn", "poisson", "-admit", "40"}},
		{"fig3_linkloss_120s.golden", []string{"-scenario", "fig3", "-param", "linkloss", "-values", "0,0.4", "-duration", "120s"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			checkGolden(t, tc.golden, append([]string{"-seeds", "2", "-duration", "48s", "-ci", "-parallel", "2"}, tc.args...))
		})
	}
}
