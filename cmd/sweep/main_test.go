package main

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"strings"
	"testing"
)

func TestSweepProducesCSV(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "fig3", "-protocol", "802.11",
		"-param", "queue", "-values", "5,10",
		"-seeds", "2", "-duration", "4s",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 2 values x 2 seeds.
	if len(lines) != 5 {
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,protocol,param,value,seed") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "fig3,802.11,queue,") {
			t.Errorf("row = %q", l)
		}
	}
}

func TestSweepWritesFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/out.csv"
	err := run([]string{
		"-scenario", "fig3", "-protocol", "802.11",
		"-param", "loss", "-values", "0",
		"-seeds", "1", "-duration", "2s", "-out", path,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSweepParallelMatchesSerial(t *testing.T) {
	args := func(parallel string) []string {
		return []string{
			"-scenario", "fig3", "-protocol", "gmp",
			"-param", "beta", "-values", "0.1,0.2",
			"-seeds", "2", "-duration", "8s", "-parallel", parallel,
		}
	}
	var serial, parallel bytes.Buffer
	if err := run(args("1"), &serial); err != nil {
		t.Fatal(err)
	}
	if err := run(args("8"), &parallel); err != nil {
		t.Fatal(err)
	}
	if serial.String() != parallel.String() {
		t.Errorf("parallel sweep CSV differs from serial:\n%s\nvs\n%s", serial.String(), parallel.String())
	}
}

func TestSweepAggregatedCI(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{
		"-scenario", "fig3", "-protocol", "802.11",
		"-param", "queue", "-values", "5,10",
		"-seeds", "3", "-duration", "4s", "-ci",
	}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + one aggregated row per value.
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "scenario,protocol,param,value,seeds,i_mm,i_mm_ci95") {
		t.Errorf("header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		fields := strings.Split(l, ",")
		if len(fields) != 13 {
			t.Fatalf("row has %d fields, want 13: %q", len(fields), l)
		}
		if fields[4] != "3" {
			t.Errorf("seeds column = %q, want 3", fields[4])
		}
	}
}

// sweepRows runs the sweep and returns its CSV rows as maps keyed by
// the header's column names.
func sweepRows(t *testing.T, args ...string) []map[string]string {
	t.Helper()
	var buf bytes.Buffer
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	recs, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var rows []map[string]string
	for _, rec := range recs[1:] {
		row := map[string]string{}
		for i, name := range recs[0] {
			row[name] = rec[i]
		}
		rows = append(rows, row)
	}
	return rows
}

func TestSweepOutageOutput(t *testing.T) {
	rows := sweepRows(t, "-scenario", "fig3", "-param", "outage", "-values", "0,0.5",
		"-seeds", "2", "-duration", "48s", "-ci")
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per value", len(rows))
	}
	for _, row := range rows {
		if row["param"] != "outage" || row["seeds"] != "2" {
			t.Errorf("row labels: %v", row)
		}
		frac, err := strconv.ParseFloat(row["recovered_frac"], 64)
		if err != nil || frac < 0 || frac > 1 {
			t.Errorf("recovered_frac %q", row["recovered_frac"])
		}
	}
	// The baseline (value 0) runs fault-free and keeps all flows alive;
	// the outage starves <0,3>, so its maxmin floor cannot exceed the
	// baseline's.
	base, err := strconv.ParseFloat(rows[0]["min_rate_pps"], 64)
	if err != nil || base <= 0 {
		t.Fatalf("baseline min rate %q", rows[0]["min_rate_pps"])
	}
	faulted, err := strconv.ParseFloat(rows[1]["min_rate_pps"], 64)
	if err != nil {
		t.Fatal(err)
	}
	if faulted > base {
		t.Errorf("min rate rose under the outage: baseline %.2f, faulted %.2f", base, faulted)
	}
}

// TestSweepLinklossPerRun checks the per-run recovery columns: the
// baseline has no fault to recover from, and the loss episode on link
// 1->2 re-settles within a 120 s run.
func TestSweepLinklossPerRun(t *testing.T) {
	rows := sweepRows(t, "-scenario", "fig3", "-param", "linkloss", "-values", "0,0.4",
		"-seeds", "1", "-duration", "120s")
	if len(rows) != 2 {
		t.Fatalf("%d rows, want one per run", len(rows))
	}
	if rows[0]["recovered"] != "false" || rows[0]["recovery_s"] != "" {
		t.Errorf("baseline row reports a recovery: %v", rows[0])
	}
	if rows[1]["recovered"] != "true" {
		t.Fatalf("loss episode never re-settled: %v", rows[1])
	}
	if s, err := strconv.ParseFloat(rows[1]["recovery_s"], 64); err != nil || s < 0 {
		t.Errorf("recovery_s %q", rows[1]["recovery_s"])
	}
}

func TestSweepRejectsBadInput(t *testing.T) {
	cases := [][]string{
		{"-scenario", "bogus"},
		{"-protocol", "bogus"},
		{"-param", "bogus", "-duration", "2s"},
		{"-values", "abc"},
		{"-seeds", "0"},
		{"-parallel", "-1"},
		{"-param", "lambda", "-values", "1"},
		{"-churn", "poisson", "-admit", "-5", "-values", "0.1"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

// TestSweepRejectsBadFaultValues checks that the fault parameters take
// only intensities in [0,1] and need a run long enough to place a fault.
func TestSweepRejectsBadFaultValues(t *testing.T) {
	cases := [][]string{
		{"-param", "outage", "-values", "2"},
		{"-param", "outage", "-values", "-0.5"},
		{"-param", "linkloss", "-values", "x"},
		{"-param", "outage", "-values", "0.5", "-duration", "0s"},
	}
	for _, args := range cases {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
