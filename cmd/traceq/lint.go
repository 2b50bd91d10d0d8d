package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"

	"gmp/internal/obs"
	"gmp/internal/span"
)

// lintAll validates telemetry and span JSONL files against their
// schemas (obs.ValidateJSONL and span.ValidateJSONL, the schemas'
// executable definitions), printing per-type record counts for each
// valid file. It returns the exit code: 2 for bad usage, 1 if any file
// is malformed, 0 otherwise.
func lintAll(paths []string, schema string) int {
	if len(paths) == 0 {
		fmt.Fprintln(os.Stderr, "usage: traceq lint [-schema auto|telemetry|spans] file.jsonl [file.jsonl ...]")
		return 2
	}
	switch schema {
	case "auto", "telemetry", "spans":
	default:
		fmt.Fprintf(os.Stderr, "traceq lint: unknown -schema %q\n", schema)
		return 2
	}
	code := 0
	for _, path := range paths {
		if err := lint(path, schema); err != nil {
			fmt.Fprintf(os.Stderr, "traceq lint: %s: %v\n", path, err)
			code = 1
		}
	}
	return code
}

// lint validates one file. Under schema "auto" it is detected from the
// file: span streams open with a meta record carrying "sample_every",
// telemetry streams do not.
func lint(path, schema string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var r io.Reader = f
	if schema == "auto" {
		br := bufio.NewReader(f)
		head, _ := br.Peek(4096)
		schema = "telemetry"
		if line, _, ok := bytes.Cut(head, []byte("\n")); (ok || len(line) > 0) && bytes.Contains(line, []byte(`"sample_every"`)) {
			schema = "spans"
		}
		r = br
	}
	var counts map[string]int
	if schema == "spans" {
		counts, err = span.ValidateJSONL(r)
	} else {
		counts, err = obs.ValidateJSONL(r)
	}
	if err != nil {
		return err
	}
	types := make([]string, 0, len(counts))
	for k := range counts {
		types = append(types, k)
	}
	sort.Strings(types)
	fmt.Printf("%s: ok (%s)", path, schema)
	for _, k := range types {
		fmt.Printf(" %s=%d", k, counts[k])
	}
	fmt.Println()
	return nil
}
