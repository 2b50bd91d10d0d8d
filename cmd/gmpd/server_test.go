package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gmp"
	"gmp/internal/obs"
	"gmp/internal/span"
)

func newTestServer(t *testing.T, workers int) (*server, *httptest.Server) {
	t.Helper()
	s, err := newServer(workers, 256, "")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler(false))
	t.Cleanup(ts.Close)
	return s, ts
}

func submit(t *testing.T, ts *httptest.Server, body string) statusResponse {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var st statusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("submit response %s: %v", raw, err)
	}
	return st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statusResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// waitTerminal polls until the job leaves queued/running.
func waitTerminal(t *testing.T, ts *httptest.Server, id string) statusResponse {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		switch st.Status {
		case "done", "failed", "cancelled":
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return statusResponse{}
}

func getResult(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d %s", resp.StatusCode, raw)
	}
	return raw
}

const sweepBody = `{"scenario_name":"fig3","duration_s":4,"warmup_s":2,"seeds":3}`

// TestSubmitPollResultAndCacheHit is the service's end-to-end
// acceptance test: a sweep runs to completion and aggregates; an
// identical resubmission is served entirely from the result cache with
// zero simulations and a byte-identical result document; a different
// run spec misses the cache.
func TestSubmitPollResultAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, 2)

	// Follow the telemetry stream from submission time: this client
	// reads records as the sweep emits them, not after it ends.
	first := submit(t, ts, sweepBody)
	streamed := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + first.ID + "/telemetry")
		if err != nil {
			streamed <- nil
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		streamed <- raw
	}()

	st := waitTerminal(t, ts, first.ID)
	if st.Status != "done" {
		t.Fatalf("job finished %q (error %q)", st.Status, st.Error)
	}
	if st.SimsExecuted != 3 || st.CacheHits != 0 || st.RunsDone != 3 {
		t.Fatalf("first sweep counters: %+v", st)
	}
	res1 := getResult(t, ts, first.ID)
	var doc jobResult
	if err := json.Unmarshal(res1, &doc); err != nil {
		t.Fatalf("result %s: %v", res1, err)
	}
	if doc.Scenario != "fig3" || doc.Protocol != "gmp" || doc.Seeds != 3 || len(doc.Runs) != 3 {
		t.Fatalf("result document: %+v", doc)
	}
	if doc.Summary.Runs != 3 || doc.Summary.U.Mean <= 0 {
		t.Fatalf("summary: %+v", doc.Summary)
	}
	if bytes.Contains(res1, []byte(first.ID)) {
		t.Fatal("result document leaks the job ID (breaks cache-identity)")
	}

	// The streamed telemetry validates under the obs schema.
	raw := <-streamed
	if raw == nil {
		t.Fatal("telemetry stream failed")
	}
	counts, err := obs.ValidateJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("streamed telemetry invalid: %v\n%s", err, raw)
	}
	if counts["meta"] != 1 || counts["run"] != 3 {
		t.Fatalf("telemetry counts: %v", counts)
	}

	// Identical resubmission: full cache hit, zero simulations,
	// byte-identical result.
	second := submit(t, ts, sweepBody)
	st2 := waitTerminal(t, ts, second.ID)
	if st2.Status != "done" {
		t.Fatalf("cached job finished %q (error %q)", st2.Status, st2.Error)
	}
	if st2.SimsExecuted != 0 {
		t.Fatalf("cached sweep executed %d simulations, want 0", st2.SimsExecuted)
	}
	if st2.CacheHits != 3 || st2.RunsDone != 3 {
		t.Fatalf("cached sweep counters: %+v", st2)
	}
	res2 := getResult(t, ts, second.ID)
	if !bytes.Equal(res1, res2) {
		t.Fatalf("cached result differs from simulated result:\n%s\nvs\n%s", res1, res2)
	}

	// Extending the sweep reuses the cached seeds and only runs new ones.
	third := submit(t, ts, `{"scenario_name":"fig3","duration_s":4,"warmup_s":2,"seeds":5}`)
	st3 := waitTerminal(t, ts, third.ID)
	if st3.Status != "done" || st3.CacheHits != 3 || st3.SimsExecuted != 2 {
		t.Fatalf("extended sweep counters: %+v", st3)
	}

	// A changed run spec addresses different content: no hits.
	fourth := submit(t, ts, `{"scenario_name":"fig3","duration_s":4,"warmup_s":2,"seeds":3,"loss_prob":0.1}`)
	st4 := waitTerminal(t, ts, fourth.ID)
	if st4.Status != "done" || st4.CacheHits != 0 || st4.SimsExecuted != 3 {
		t.Fatalf("changed-spec sweep counters: %+v", st4)
	}
}

// TestInlineScenarioSubmission submits a scenario document instead of
// a registry name, and checks key-order insensitivity: the same
// scenario with reordered JSON fields hits the cache.
func TestInlineScenarioSubmission(t *testing.T) {
	_, ts := newTestServer(t, 1)
	inline := `{"name":"pair","nodes":[[0,0],[200,0]],"flows":[{"src":0,"dst":1}]}`
	reordered := `{"flows":[{"dst":1,"src":0}],"nodes":[[0,0],[200,0]],"name":"pair"}`

	first := submit(t, ts, `{"scenario":`+inline+`,"duration_s":4,"warmup_s":2}`)
	st := waitTerminal(t, ts, first.ID)
	if st.Status != "done" || st.SimsExecuted != 1 {
		t.Fatalf("inline sweep: %+v", st)
	}
	second := submit(t, ts, `{"scenario":`+reordered+`,"duration_s":4,"warmup_s":2}`)
	st2 := waitTerminal(t, ts, second.ID)
	if st2.Status != "done" || st2.CacheHits != 1 || st2.SimsExecuted != 0 {
		t.Fatalf("reordered scenario missed the cache: %+v", st2)
	}
	if a, b := getResult(t, ts, first.ID), getResult(t, ts, second.ID); !bytes.Equal(a, b) {
		t.Fatal("reordered scenario produced a different result document")
	}
}

// TestProtocolAliasesShareCache submits 802.11 under each of its
// accepted names: the cache key holds the canonical spelling, so the
// aliases address one entry and only the first job simulates. gmpsim's
// "gmpd" alias for distributed GMP is accepted too.
func TestProtocolAliasesShareCache(t *testing.T) {
	_, ts := newTestServer(t, 1)
	body := func(proto string) string {
		return `{"scenario_name":"fig3","protocol":"` + proto + `","duration_s":4,"warmup_s":2}`
	}
	first := submit(t, ts, body("80211"))
	if st := waitTerminal(t, ts, first.ID); st.Status != "done" || st.SimsExecuted != 1 {
		t.Fatalf("first 802.11 job: %+v", st)
	}
	want := getResult(t, ts, first.ID)
	for _, alias := range []string{"dcf", "802.11"} {
		job := submit(t, ts, body(alias))
		st := waitTerminal(t, ts, job.ID)
		if st.Status != "done" || st.SimsExecuted != 0 || st.CacheHits != 1 {
			t.Fatalf("protocol %q missed the cache: %+v", alias, st)
		}
		if got := getResult(t, ts, job.ID); !bytes.Equal(got, want) {
			t.Fatalf("protocol %q result differs:\n%s\nvs\n%s", alias, got, want)
		}
	}
	dist := submit(t, ts, body("gmpd"))
	if st := waitTerminal(t, ts, dist.ID); st.Status != "done" || st.SimsExecuted != 1 {
		t.Fatalf("gmpd alias job: %+v", st)
	}
	var doc jobResult
	if err := json.Unmarshal(getResult(t, ts, dist.ID), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Protocol != "gmp-dist" {
		t.Fatalf("gmpd alias resolved to %q, want gmp-dist", doc.Protocol)
	}
}

// TestCancelMidSweep cancels a long sweep while it runs and checks the
// typed partial status.
func TestCancelMidSweep(t *testing.T) {
	_, ts := newTestServer(t, 1)
	// One simulated hour per run: only cancellation ends this sweep.
	st := submit(t, ts, `{"scenario_name":"fig3","duration_s":3600,"warmup_s":10,"seeds":4,"workers":1}`)

	deadline := time.Now().Add(60 * time.Second)
	for getStatus(t, ts, st.ID).Status != "running" {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(10 * time.Millisecond)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	final := waitTerminal(t, ts, st.ID)
	if final.Status != "cancelled" {
		t.Fatalf("cancelled job finished %q", final.Status)
	}
	if final.CancelReason != "requested" {
		t.Fatalf("cancel reason %q, want requested", final.CancelReason)
	}
	if final.RunsDone >= 4 {
		t.Fatalf("cancelled sweep reports %d/4 runs done", final.RunsDone)
	}
	// The result endpoint refuses with the cancellation, not a hang.
	rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("result of cancelled job: %d", rresp.StatusCode)
	}
}

// TestShutdownDrains checks graceful shutdown: the running job
// finishes, the queued job is cancelled with the typed shutdown
// reason, and new submissions are refused.
func TestShutdownDrains(t *testing.T) {
	s, ts := newTestServer(t, 1)
	// A few hundred simulated seconds: long enough (seconds of wall
	// time) that the drain starts while this job is still running,
	// short enough to finish well inside the drain window.
	running := submit(t, ts, `{"scenario_name":"fig3","duration_s":1200,"warmup_s":600}`)
	queued := submit(t, ts, `{"scenario_name":"fig3","duration_s":1200,"warmup_s":600,"seeds":2}`)

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st := getStatus(t, ts, running.ID)
	if st.Status != "done" {
		t.Fatalf("running job drained as %q (error %q) — drain killed it", st.Status, st.Error)
	}
	qst := getStatus(t, ts, queued.ID)
	if qst.Status != "cancelled" || qst.CancelReason != "shutdown" {
		t.Fatalf("queued job drained as %q/%q, want cancelled/shutdown", qst.Status, qst.CancelReason)
	}

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submission after drain: %d, want 503", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, 1)
	for name, body := range map[string]string{
		"no scenario":      `{"seeds":2}`,
		"both scenarios":   `{"scenario_name":"fig3","scenario":{"name":"x","nodes":[[0,0],[1,1]]},"seeds":1}`,
		"unknown scenario": `{"scenario_name":"nope"}`,
		"unknown protocol": `{"scenario_name":"fig3","protocol":"tcp"}`,
		"unknown field":    `{"scenario_name":"fig3","bogus":1}`,
		"too many seeds":   fmt.Sprintf(`{"scenario_name":"fig3","seeds":%d}`, maxSeeds+1),
		"bad loss prob":    `{"scenario_name":"fig3","loss_prob":1.5}`,
		"negative warmup":  `{"scenario_name":"fig3","warmup_s":-1}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	for _, path := range []string{"/v1/jobs/nope", "/v1/jobs/nope/result", "/v1/jobs/nope/telemetry"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestSubmitBodyLimit checks both sides of the submission size bound.
// Bodies the server reads in full fail validation on their protocol, so
// no simulation runs: the inline 2000-node city job the benchmark
// submits and a body of exactly maxSubmitBytes get 400 naming the
// protocol; one byte more gets 413 before any validation.
func TestSubmitBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, 1)
	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(raw)
	}
	wantRead := func(name, body string) {
		t.Helper()
		if code, msg := post(body); code != http.StatusBadRequest || !strings.Contains(msg, "tcp") {
			t.Errorf("%s (%d bytes): status %d %s, want 400 naming the protocol", name, len(body), code, msg)
		}
	}

	sc, err := gmp.CityScenario(2000, 8, 24, 220, 1)
	if err != nil {
		t.Fatal(err)
	}
	var inline bytes.Buffer
	if err := gmp.SaveScenario(&inline, sc); err != nil {
		t.Fatal(err)
	}
	wantRead("city job", `{"scenario":`+inline.String()+`,"protocol":"tcp","duration_s":2}`)

	head, tail := `{"scenario_name":"fig3","protocol":"tcp"`, `}`
	pad := func(n int) string { return head + strings.Repeat(" ", n-len(head)-len(tail)) + tail }
	wantRead("body at the bound", pad(maxSubmitBytes))
	if code, msg := post(pad(maxSubmitBytes + 1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("body one byte past the bound: status %d %s, want 413", code, msg)
	}
}

func TestHealthAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, 1)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	st := submit(t, ts, `{"scenario_name":"fig3","duration_s":4,"warmup_s":2}`)
	waitTerminal(t, ts, st.ID)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	metrics, _ := io.ReadAll(mresp.Body)
	for _, want := range []string{"gmpd_jobs_submitted 1", "gmpd_jobs_done 1", "gmpd_cache_puts 1", "gmpd_cache_misses 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// TestSpansEndpoint covers the causal-trace stream: a spans job streams
// schema-valid span JSONL with tail-follow semantics, forces its first
// seed to simulate even when cached, and leaves results byte-identical
// to the spans-off document. Jobs without spans 404 on the endpoint.
func TestSpansEndpoint(t *testing.T) {
	_, ts := newTestServer(t, 2)

	// Prime the cache with a spans-off sweep.
	plain := submit(t, ts, `{"scenario_name":"fig3","duration_s":4,"warmup_s":2,"seeds":2}`)
	if st := waitTerminal(t, ts, plain.ID); st.Status != "done" {
		t.Fatalf("plain job: %+v", st)
	}
	plainDoc := getResult(t, ts, plain.ID)

	// No spans requested → the endpoint refuses.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + plain.ID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("spans of a spans-less job: %d, want 404", resp.StatusCode)
	}

	// Same sweep with spans: seed 1 must re-simulate (the cache has no
	// trace), seed 2 still hits. Follow the stream from submission.
	withSpans := submit(t, ts, `{"scenario_name":"fig3","duration_s":4,"warmup_s":2,"seeds":2,"spans":true,"span_sample":8}`)
	streamed := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + withSpans.ID + "/spans")
		if err != nil {
			streamed <- nil
			return
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		streamed <- raw
	}()
	st := waitTerminal(t, ts, withSpans.ID)
	if st.Status != "done" {
		t.Fatalf("spans job: %+v", st)
	}
	if st.SimsExecuted != 1 || st.CacheHits != 1 {
		t.Fatalf("spans job must force-simulate exactly the first seed: %+v", st)
	}
	if doc := getResult(t, ts, withSpans.ID); !bytes.Equal(plainDoc, doc) {
		t.Fatal("enabling spans changed the result document")
	}

	raw := <-streamed
	if raw == nil {
		t.Fatal("span stream failed")
	}
	counts, err := span.ValidateJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("streamed spans invalid: %v", err)
	}
	if counts["meta"] != 1 || counts["span"] == 0 {
		t.Fatalf("span stream counts: %v", counts)
	}

	// Invalid span requests are refused at submission.
	for name, body := range map[string]string{
		"negative stride":  `{"scenario_name":"fig3","spans":true,"span_sample":-1}`,
		"stride sans span": `{"scenario_name":"fig3","span_sample":8}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestMetricsPrometheusConformance pins the /metrics exposition format:
// every family carries # HELP and # TYPE annotations with a legal type,
// in order, and the sample values equal the server's own counters.
func TestMetricsPrometheusConformance(t *testing.T) {
	s, ts := newTestServer(t, 1)
	st := submit(t, ts, `{"scenario_name":"fig3","duration_s":4,"warmup_s":2,"spans":true}`)
	waitTerminal(t, ts, st.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines)%3 != 0 {
		t.Fatalf("exposition is not HELP/TYPE/sample triplets (%d lines):\n%s", len(lines), body)
	}
	got := make(map[string]int64)
	for i := 0; i < len(lines); i += 3 {
		var helpName, typeName, typ string
		if _, err := fmt.Sscanf(lines[i], "# HELP %s", &helpName); err != nil {
			t.Fatalf("line %d is not a HELP line: %q", i, lines[i])
		}
		if _, err := fmt.Sscanf(lines[i+1], "# TYPE %s %s", &typeName, &typ); err != nil {
			t.Fatalf("line %d is not a TYPE line: %q", i+1, lines[i+1])
		}
		if typ != "counter" && typ != "gauge" {
			t.Fatalf("%s has illegal type %q", typeName, typ)
		}
		var sampleName string
		var value int64
		if _, err := fmt.Sscanf(lines[i+2], "%s %d", &sampleName, &value); err != nil {
			t.Fatalf("line %d is not a sample: %q", i+2, lines[i+2])
		}
		if helpName != typeName || typeName != sampleName {
			t.Fatalf("family name mismatch: HELP %q TYPE %q sample %q", helpName, typeName, sampleName)
		}
		got[sampleName] = value
	}
	// The scraped values must match the server's own snapshot (counters
	// that cannot move between scrape and snapshot in this quiesced test).
	for _, m := range s.metricFamilies() {
		v, ok := got[m.name]
		if !ok {
			t.Errorf("exposition missing %s", m.name)
			continue
		}
		if v != m.value {
			t.Errorf("%s: scraped %d, server has %d", m.name, v, m.value)
		}
	}
	if got["gmpd_span_jobs"] != 1 {
		t.Errorf("gmpd_span_jobs = %d after one spans job, want 1", got["gmpd_span_jobs"])
	}
	if got["gmpd_span_bytes_recorded"] <= 0 {
		t.Errorf("gmpd_span_bytes_recorded = %d, want > 0", got["gmpd_span_bytes_recorded"])
	}
}

// TestPprofGatedAndTopologyMetrics covers the two observability hooks:
// /debug/pprof/* must exist only when enabled, and /metrics must report
// the admission-time topology-build counters after a submission.
func TestPprofGatedAndTopologyMetrics(t *testing.T) {
	s, ts := newTestServer(t, 1)

	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof disabled but /debug/pprof/ returned %d", resp.StatusCode)
	}

	on := httptest.NewServer(s.handler(true))
	defer on.Close()
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof enabled but /debug/pprof/ returned %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Error("pprof index does not list the goroutine profile")
	}

	submit(t, ts, `{"scenario_name":"fig3","protocol":"802.11","duration_s":1,"warmup_s":0.5}`)
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(body)
	if !strings.Contains(metrics, "gmpd_topology_builds 1\n") {
		t.Errorf("metrics missing topology build count:\n%s", metrics)
	}
	for _, name := range []string{"gmpd_topology_build_ns_total", "gmpd_topology_build_ns_last"} {
		if !strings.Contains(metrics, name+" ") {
			t.Errorf("metrics missing %s:\n%s", name, metrics)
		}
	}
}

// TestResultReadyWhenTelemetryEnds checks that the end of a job's
// telemetry stream implies a terminal job status: a client that follows
// the stream to EOF and then asks for the result must get it at once,
// never a 409 "job is running". Cache-hit jobs finish in well under a
// millisecond, so several concurrent clients looping over them keep the
// window between the stream's close and the job's completion exposed.
func TestResultReadyWhenTelemetryEnds(t *testing.T) {
	_, ts := newTestServer(t, 4)
	const body = `{"scenario_name":"fig3","duration_s":2,"warmup_s":1}`
	if st := waitTerminal(t, ts, submit(t, ts, body).ID); st.Status != "done" {
		t.Fatalf("priming job: %+v", st)
	}

	const clients, jobsPerClient = 4, 150
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		go func() {
			errs <- func() error {
				for i := 0; i < jobsPerClient; i++ {
					resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
					if err != nil {
						return err
					}
					var st statusResponse
					err = json.NewDecoder(resp.Body).Decode(&st)
					resp.Body.Close()
					if err != nil {
						return err
					}
					tresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/telemetry")
					if err != nil {
						return err
					}
					io.Copy(io.Discard, tresp.Body)
					tresp.Body.Close()
					rresp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/result")
					if err != nil {
						return err
					}
					raw, _ := io.ReadAll(rresp.Body)
					rresp.Body.Close()
					if rresp.StatusCode != http.StatusOK {
						return fmt.Errorf("job %d of %d: result after telemetry EOF: %d %s", i+1, jobsPerClient, rresp.StatusCode, raw)
					}
				}
				return nil
			}()
		}()
	}
	for c := 0; c < clients; c++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
