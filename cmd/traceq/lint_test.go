package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goodSpans = `{"type":"meta","scenario":"s","protocol":"gmp","seed":1,"sample_every":64,"nodes":4,"flows":2,"duration_ns":1000}
{"type":"span","id":1,"parent":0,"kind":"packet","flow":0,"seq":0,"node":0,"peer":3,"start_ns":0,"end_ns":10}
{"type":"limit","id":1,"at_ns":5,"flow":0,"action":"reduce","before":100,"after":90,"node":3,"cond_at_ns":4}
`

// A span stream whose second record breaks the schema (span id gap).
const badSpans = `{"type":"meta","scenario":"s","protocol":"gmp","seed":1,"sample_every":64,"nodes":4,"flows":2,"duration_ns":1000}
{"type":"span","id":2,"parent":0,"kind":"packet","flow":0,"seq":0,"node":0,"peer":3,"start_ns":0,"end_ns":10}
`

func write(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLintSpanSchemaAutoDetect(t *testing.T) {
	good := write(t, "good.jsonl", goodSpans)
	if err := lint(good, "auto"); err != nil {
		t.Fatalf("valid span stream rejected under auto-detection: %v", err)
	}
	if err := lint(good, "spans"); err != nil {
		t.Fatalf("valid span stream rejected under forced schema: %v", err)
	}
	// Forcing the wrong schema must fail: telemetry has no span records.
	if err := lint(good, "telemetry"); err == nil {
		t.Fatal("span stream accepted by the telemetry schema")
	}
}

func TestLintRejectsMalformedSpans(t *testing.T) {
	bad := write(t, "bad.jsonl", badSpans)
	err := lint(bad, "auto")
	if err == nil {
		t.Fatal("malformed span stream accepted")
	}
	if !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("error %q does not name the malformed record", err)
	}
}

func TestLintMissingFile(t *testing.T) {
	if err := lint(filepath.Join(t.TempDir(), "nope.jsonl"), "auto"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestLintExitCodes(t *testing.T) {
	good := write(t, "good.jsonl", goodSpans)
	bad := write(t, "bad.jsonl", badSpans)
	for _, tc := range []struct {
		name   string
		paths  []string
		schema string
		want   int
	}{
		{"valid", []string{good}, "auto", 0},
		{"one malformed", []string{good, bad}, "auto", 1},
		{"no files", nil, "auto", 2},
		{"unknown schema", []string{good}, "xml", 2},
	} {
		if got := lintAll(tc.paths, tc.schema); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}
