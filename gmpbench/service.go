package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gmp"
)

// jobShape is the gmpd job a workload submits: one scenario, protocol
// and duration, one seed. Fresh submissions differ only in their warm-up
// cut, drawn from [warmupLo, warmupHi) seconds, so each is a distinct
// cache key that costs the same simulation.
type jobShape struct {
	scenarioName string // registry name, or
	inline       []byte // inline scenario JSON
	protocol     string
	durationS    float64
	warmupLo     float64
	warmupHi     float64
}

// jobRequest is the subset of gmpd's POST /v1/jobs body the benchmark
// sends.
type jobRequest struct {
	ScenarioName string          `json:"scenario_name,omitempty"`
	Scenario     json.RawMessage `json:"scenario,omitempty"`
	Protocol     string          `json:"protocol"`
	DurationS    float64         `json:"duration_s"`
	WarmupS      float64         `json:"warmup_s"`
	Seeds        int             `json:"seeds"`
}

func (s jobShape) request(warmupS float64) ([]byte, error) {
	return json.Marshal(jobRequest{
		ScenarioName: s.scenarioName,
		Scenario:     s.inline,
		Protocol:     s.protocol,
		DurationS:    s.durationS,
		WarmupS:      warmupS,
		Seeds:        1,
	})
}

// config is the in-process twin of one job: the run gmpd performs for
// it (seed 1 of a one-seed sweep, telemetry on), so the result document
// can be checked against the library.
func (s jobShape) config(warmupS float64) (gmp.Config, error) {
	var sc gmp.Scenario
	var err error
	if s.inline != nil {
		sc, err = gmp.LoadScenario(bytes.NewReader(s.inline))
	} else {
		sc, err = gmp.NamedScenario(s.scenarioName)
	}
	if err != nil {
		return gmp.Config{}, err
	}
	protocols := map[string]gmp.Protocol{"gmp": gmp.ProtocolGMP, "gmp-dist": gmp.ProtocolGMPDistributed}
	proto, ok := protocols[s.protocol]
	if !ok {
		return gmp.Config{}, fmt.Errorf("job shape: unsupported protocol %q", s.protocol)
	}
	return gmp.Config{
		Scenario:  sc,
		Protocol:  proto,
		Duration:  time.Duration(s.durationS * float64(time.Second)),
		Warmup:    time.Duration(warmupS * float64(time.Second)),
		Seed:      1,
		Telemetry: &gmp.TelemetryConfig{},
	}, nil
}

// plannedJob is one position of a client's submission sequence.
type plannedJob struct {
	repeat  bool
	warmupS float64 // identifies the spec: no two fresh specs share it
}

// clients is the number of closed-loop clients driving gmpd, each with
// one job outstanding. gmpd runs two workers, so nothing queues.
const clients = 2

// sequence is one client's job sequence, fixed by the workload seed.
// Even positions submit a new spec; odd positions repeat one of the
// client's own earlier specs, so exactly half of an even number of
// submissions are cache hits. Clients draw their warm-ups from disjoint
// residues of the millisecond grid, so no fresh spec of one client is
// a cache key of the other.
type sequence struct {
	shape   jobShape
	client  int
	rng     *rand.Rand
	warmups []float64
	seen    map[int64]bool
	planned []plannedJob
}

func newSequence(shape jobShape, seed int64, client int) *sequence {
	return &sequence{
		shape:  shape,
		client: client,
		rng:    rand.New(rand.NewSource(derive(seed, "jobs/"+strconv.Itoa(client)))),
		seen:   map[int64]bool{},
	}
}

// spec returns fresh spec i's job, drawing specs in order as needed.
func (q *sequence) spec(i int) plannedJob {
	for len(q.warmups) <= i {
		// Millisecond grid: distinct values stay distinct after gmpd's
		// float-to-nanosecond conversion.
		span := int64((q.shape.warmupHi - q.shape.warmupLo) * 1000)
		for {
			k := clients*q.rng.Int63n(span/clients) + int64(q.client)
			if !q.seen[k] {
				q.seen[k] = true
				q.warmups = append(q.warmups, q.shape.warmupLo+float64(k)/1000)
				break
			}
		}
	}
	return plannedJob{warmupS: q.warmups[i]}
}

// job returns position k of the sequence.
func (q *sequence) job(k int) plannedJob {
	for len(q.planned) <= k {
		pos := len(q.planned)
		var j plannedJob
		if pos%2 == 0 {
			j = q.spec(pos / 2)
		} else {
			j = q.spec(q.rng.Intn((pos + 1) / 2))
			j.repeat = true
		}
		q.planned = append(q.planned, j)
	}
	return q.planned[k]
}

// gmpdProc is one running gmpd process.
type gmpdProc struct {
	cmd    *exec.Cmd
	base   string
	stderr *syncBuffer
	exited chan error
}

// syncBuffer is a bytes.Buffer safe for the exec copier goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// freePort asks the kernel for an unused loopback port. gmpd logs the
// address it was given, not the one it bound, so the port is chosen
// here and passed to it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startGMPD starts gmpd with two workers and a memory-only cache on an
// ephemeral loopback port, and returns once /healthz answers, with the
// time from process start to that answer.
func startGMPD(bin string, client *http.Client) (*gmpdProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p := &gmpdProc{base: "http://" + addr, stderr: &syncBuffer{}, exited: make(chan error, 1)}
	p.cmd = exec.Command(bin, "-addr", addr, "-workers", "2")
	p.cmd.Stderr = p.stderr
	// Should the benchmark die without stopping gmpd, the kernel does.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting gmpd: %w", err)
	}
	go func() { p.exited <- p.cmd.Wait() }()
	deadline := start.Add(10 * time.Second)
	for {
		resp, err := client.Get(p.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, time.Since(start), nil
			}
		}
		select {
		case err := <-p.exited:
			p.exited <- err
			return nil, 0, fmt.Errorf("gmpd exited before answering /healthz (%v): %s", err, p.stderr.String())
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, 0, fmt.Errorf("gmpd did not answer /healthz within 10s: %s", p.stderr.String())
		}
	}
}

// stop sends SIGTERM and checks that gmpd drains and exits cleanly: exit
// status 0 after logging its shutdown, within 30 s.
func (p *gmpdProc) stop() error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		p.kill()
		return fmt.Errorf("signalling gmpd: %w", err)
	}
	select {
	case err := <-p.exited:
		if err != nil {
			return fmt.Errorf("gmpd exited uncleanly after SIGTERM: %v: %s", err, p.stderr.String())
		}
		if !strings.Contains(p.stderr.String(), "shutting down") {
			return fmt.Errorf("gmpd exited without draining: %s", p.stderr.String())
		}
		return nil
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("gmpd did not exit within 30s of SIGTERM")
	}
}

// kill ends the process and waits for it.
func (p *gmpdProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}

// status is the subset of gmpd's job status document the benchmark reads.
type status struct {
	ID string `json:"id"`
}

// resultDoc is the subset of gmpd's result document the benchmark checks.
type resultDoc struct {
	Seeds int `json:"seeds"`
	Runs  []struct {
		Seed int64   `json:"seed"`
		Imm  float64 `json:"imm"`
		Ieq  float64 `json:"ieq"`
		U    float64 `json:"u"`
	} `json:"runs"`
}

// jobTiming is one completed job's client-side timings.
type jobTiming struct {
	latency, submit, result time.Duration
	doc                     []byte
	notReady                int // /result answers "running" after the stream closed
}

// runJob submits one job, follows its telemetry stream until gmpd closes
// it at the terminal state, and fetches the result document.
func (p *gmpdProc) runJob(client *http.Client, body []byte) (jobTiming, error) {
	var t jobTiming
	start := time.Now()
	resp, err := client.Post(p.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t.submit = time.Since(start)
	if err != nil {
		return t, fmt.Errorf("submit: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return t, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, raw)
	}
	var st status
	if err := json.Unmarshal(raw, &st); err != nil || st.ID == "" {
		return t, fmt.Errorf("submit: bad status document %s", raw)
	}
	resp, err = client.Get(p.base + "/v1/jobs/" + st.ID + "/telemetry")
	if err != nil {
		return t, fmt.Errorf("telemetry: %w", err)
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("telemetry: HTTP %d: %v", resp.StatusCode, err)
	}
	// gmpd closes the stream when the job's work returns, a moment
	// before its queue marks the job done, so /result can still answer
	// 409 "running" right after the stream ends. That answer is retried
	// at once, with no interval to quantize the latency, and counted.
	resultStart := time.Now()
	for {
		resp, err = client.Get(p.base + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			return t, fmt.Errorf("result: %w", err)
		}
		t.doc, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return t, fmt.Errorf("result: %w", err)
		}
		if resp.StatusCode != http.StatusConflict || !bytes.Contains(t.doc, []byte("job is running")) ||
			time.Since(resultStart) > time.Second {
			break
		}
		t.notReady++
	}
	t.result = time.Since(resultStart)
	t.latency = time.Since(start)
	if resp.StatusCode != http.StatusOK {
		return t, fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, t.doc)
	}
	return t, nil
}

// scrapeMetrics reads gmpd's /metrics exposition into name -> value.
func (p *gmpdProc) scrapeMetrics(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(p.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("metrics: HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("metrics: unexpected line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: %q: %w", line, err)
		}
		out[fields[0]] = v
	}
	return out, sc.Err()
}

// loadPlan bounds a closed loop: each client runs until budget has gone
// (then stops at an even position, so repeats stay exactly half), or
// until it has submitted jobs/clients positions.
type loadPlan struct {
	budget time.Duration
	jobs   int
}

// rssAtJobs is the completed-job count at which the loop reads gmpd's
// peak RSS. gmpd keeps every job's state for the life of the process, so
// its memory grows with the jobs served; reading it at a fixed count
// keeps the figure independent of how fast the host ran.
const rssAtJobs = 256

// loadResult is a closed loop's outcome, over all clients.
type loadResult struct {
	fresh, hits    []float64 // latencies, seconds
	submit, result []float64 // round trips, milliseconds
	elapsed        time.Duration
	freshDocs      map[float64][]byte // by warm-up
	notReady       int                // /result retries after the stream closed
	rssMB          float64            // gmpd's peak RSS at rssAtJobs completed jobs (0 if fewer)
	rssErr         error
}

func (r *loadResult) completed() int { return len(r.fresh) + len(r.hits) }

// clientLoad is one client's share of a closed loop.
type clientLoad struct {
	fresh, hits    []float64
	submit, result []float64
	freshDocs      map[float64][]byte
	errs           []error // one per submitted job, nil when it passed its checks
	notReady       int
}

// closedLoop drives gmpd from clients that each keep one job
// outstanding: a client submits its next position only once its
// previous result is in. A repeat's fresh twin was submitted by the same
// client and has therefore always finished, so the repeat is a cache hit
// and never a duplicate simulation.
func closedLoop(p *gmpdProc, client *http.Client, shape jobShape, seed int64, plan loadPlan, rep *report) *loadResult {
	res := &loadResult{freshDocs: map[float64][]byte{}}
	var completed atomic.Int64
	loads := make([]clientLoad, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range loads {
		wg.Add(1)
		go func(cl *clientLoad, seq *sequence) {
			defer wg.Done()
			cl.freshDocs = map[float64][]byte{}
			for k := 0; ; k++ {
				if plan.jobs > 0 && k >= plan.jobs/clients || plan.jobs == 0 && k%2 == 0 && time.Since(start) >= plan.budget {
					return
				}
				j := seq.job(k)
				body, err := shape.request(j.warmupS)
				var t jobTiming
				if err == nil {
					t, err = p.runJob(client, body)
				}
				if err == nil {
					err = checkDoc(cl.freshDocs, j, t.doc)
				}
				cl.errs = append(cl.errs, err)
				cl.notReady += t.notReady
				if err != nil {
					continue
				}
				cl.submit = append(cl.submit, ms(t.submit))
				cl.result = append(cl.result, ms(t.result))
				if j.repeat {
					cl.hits = append(cl.hits, t.latency.Seconds())
				} else {
					cl.fresh = append(cl.fresh, t.latency.Seconds())
					cl.freshDocs[j.warmupS] = t.doc
				}
				// Exactly one client sees the count reach rssAtJobs; the
				// fields are read after wg.Wait.
				if completed.Add(1) == rssAtJobs {
					res.rssMB, res.rssErr = peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
				}
			}
		}(&loads[c], newSequence(shape, seed, c))
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	for _, cl := range loads {
		for _, err := range cl.errs {
			rep.check(err)
		}
		res.fresh = append(res.fresh, cl.fresh...)
		res.hits = append(res.hits, cl.hits...)
		res.submit = append(res.submit, cl.submit...)
		res.result = append(res.result, cl.result...)
		for w, doc := range cl.freshDocs {
			res.freshDocs[w] = doc
		}
		res.notReady += cl.notReady
	}
	return res
}

// checkDoc checks a result document: a fresh job's must describe one
// seed-1 run of the submitted shape; a repeat's must be byte-identical
// to its fresh twin's, among the client's fresh documents.
func checkDoc(freshDocs map[float64][]byte, j plannedJob, doc []byte) error {
	if j.repeat {
		twin, ok := freshDocs[j.warmupS]
		if !ok {
			return fmt.Errorf("repeat of warm-up %vs: its fresh twin failed", j.warmupS)
		}
		if !bytes.Equal(doc, twin) {
			return fmt.Errorf("repeat of warm-up %vs: result document differs from its fresh twin's", j.warmupS)
		}
		return nil
	}
	var d resultDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return fmt.Errorf("fresh warm-up %vs: result document: %w", j.warmupS, err)
	}
	if d.Seeds != 1 || len(d.Runs) != 1 || d.Runs[0].Seed != 1 {
		return fmt.Errorf("fresh warm-up %vs: result document has %d seeds, %d runs", j.warmupS, d.Seeds, len(d.Runs))
	}
	return nil
}

// checkAgainstLibrary re-runs a fresh job in process and checks gmpd's
// result document against it, returning the run's frame count.
func checkAgainstLibrary(shape jobShape, warmupS float64, doc []byte) (int64, error) {
	cfg, err := shape.config(warmupS)
	if err != nil {
		return 0, err
	}
	res, err := gmp.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("library twin of a gmpd job: %w", err)
	}
	var d resultDoc
	if err := json.Unmarshal(doc, &d); err != nil {
		return 0, err
	}
	r := d.Runs[0]
	if r.Imm != res.Imm || r.Ieq != res.Ieq || r.U != res.U {
		return 0, fmt.Errorf("gmpd result (imm %v, ieq %v, u %v) differs from the library's (imm %v, ieq %v, u %v) at warm-up %vs",
			r.Imm, r.Ieq, r.U, res.Imm, res.Ieq, res.U, warmupS)
	}
	return res.Channel.Transmissions, nil
}

// serviceRun is one gmpd session of the benchmark: start, closed loop,
// metric scrapes around it, peak RSS, SIGTERM drain check, and library
// checks of up to three fresh jobs.
type serviceRun struct {
	load          *loadResult
	before, after map[string]float64
	rssMB         float64
	framesPerJob  float64
	imm, u        []float64
}

func driveService(shape jobShape, seed int64, plan loadPlan, rep *report, proc *gmpdProc, client *http.Client) (*serviceRun, error) {
	run := &serviceRun{}
	var err error
	if run.before, err = proc.scrapeMetrics(client); err != nil {
		proc.kill()
		return nil, err
	}
	run.load = closedLoop(proc, client, shape, seed, plan, rep)
	if run.after, err = proc.scrapeMetrics(client); err != nil {
		proc.kill()
		return nil, err
	}
	run.rssMB, err = run.load.rssMB, run.load.rssErr
	if run.rssMB == 0 && err == nil {
		run.rssMB, err = peakRSSMB(strconv.Itoa(proc.cmd.Process.Pid))
	}
	if err != nil {
		proc.kill()
		return nil, err
	}
	rep.check(proc.stop())

	l := run.load
	if len(l.fresh) == 0 {
		return nil, fmt.Errorf("no fresh gmpd job completed: %v", rep.problems)
	}
	checkServiceCounters(run, rep)

	// Library checks run after gmpd has stopped, so they do not compete
	// with it for the CPU.
	specs := make([]float64, 0, len(l.freshDocs))
	for w := range l.freshDocs {
		specs = append(specs, w)
	}
	sort.Float64s(specs)
	var frames []float64
	for _, w := range pickThree(specs) {
		n, err := checkAgainstLibrary(shape, w, l.freshDocs[w])
		rep.check(err)
		if err == nil {
			frames = append(frames, float64(n))
		}
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("no gmpd result matched the library: %v", rep.problems)
	}
	run.framesPerJob = median(frames)
	for _, w := range specs {
		var d resultDoc
		if json.Unmarshal(l.freshDocs[w], &d) == nil {
			run.imm = append(run.imm, d.Runs[0].Imm)
			run.u = append(run.u, d.Runs[0].U)
		}
	}
	return run, nil
}

// checkServiceCounters checks gmpd's own counters against what the
// client saw: every job done, every fresh job simulated exactly once,
// and every repeat answered from the cache.
func checkServiceCounters(run *serviceRun, rep *report) {
	d := func(name string) float64 { return run.after[name] - run.before[name] }
	l := run.load
	fresh, hits := float64(len(l.fresh)), float64(len(l.hits))
	var err error
	switch {
	case d("gmpd_jobs_done") != fresh+hits || d("gmpd_jobs_failed") != 0:
		err = fmt.Errorf("gmpd counted %v jobs done and %v failed; the client completed %v", d("gmpd_jobs_done"), d("gmpd_jobs_failed"), fresh+hits)
	case d("gmpd_cache_puts") != fresh:
		err = fmt.Errorf("gmpd ran %v simulations for %v fresh jobs", d("gmpd_cache_puts"), fresh)
	case d("gmpd_cache_hits") != hits || d("gmpd_cache_misses") != fresh:
		err = fmt.Errorf("gmpd counted %v cache hits and %v misses for %v repeats and %v fresh jobs", d("gmpd_cache_hits"), d("gmpd_cache_misses"), hits, fresh)
	case hits != fresh:
		err = fmt.Errorf("repeat share %v/%v differs from the designed one half", hits, fresh+hits)
	}
	rep.check(err)
}

// pickThree returns the first, middle and last of xs (fewer when xs is
// shorter).
func pickThree(xs []float64) []float64 {
	if len(xs) <= 3 {
		return xs
	}
	return []float64{xs[0], xs[len(xs)/2], xs[len(xs)-1]}
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
}

// gmpdStarts is how many times setup_s starts gmpd; the last start
// serves the load.
const gmpdStarts = 5

// startMeasured starts gmpd gmpdStarts times, stopping all but the last
// (each stop is a checked clean exit), and returns the last with every
// start-to-healthy time.
func startMeasured(gmpd string, client *http.Client, rep *report) (*gmpdProc, []float64, error) {
	var times []float64
	for i := 0; ; i++ {
		proc, d, err := startGMPD(gmpd, client)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, d.Seconds())
		if i == gmpdStarts-1 {
			return proc, times, nil
		}
		client.CloseIdleConnections()
		rep.check(proc.stop())
	}
}

// runServiceE2E measures the service workload's end-to-end metrics.
func (w *workload) runServiceE2E(env *runEnv, rep *report) error {
	shape, err := w.job()
	if err != nil {
		return err
	}
	client := newClient()
	defer client.CloseIdleConnections()
	proc, starts, err := startMeasured(env.gmpd, client, rep)
	if err != nil {
		return err
	}
	rep.setN("setup_s", median(starts), len(starts))
	run, err := driveService(shape, env.seed, loadPlan{budget: env.budget()}, rep, proc, client)
	if err != nil {
		return err
	}
	l := run.load
	secs := l.elapsed.Seconds()
	nFresh := len(l.fresh)
	rep.setN("frames_per_s", float64(nFresh)*run.framesPerJob/secs, nFresh)
	rep.setN("simsec_per_s", float64(nFresh)*shape.durationS/secs, nFresh)
	rep.setN("job_p50_s", median(l.fresh), nFresh)
	rep.setN("job_p90_s", quantile(l.fresh, 0.9), nFresh)
	rep.setN("hit_p50_s", median(l.hits), len(l.hits))
	rep.setN("jobs_per_s", float64(l.completed())/secs, l.completed())
	rep.set("peak_rss_mb", run.rssMB)
	rep.set("gmpd.result_not_ready", float64(l.notReady))
	rep.setN("imm", median(run.imm), len(run.imm))
	rep.setN("u_pps", median(run.u), len(run.u))
	return nil
}

// serviceLayer measures the service per-layer metrics with the given
// job shape and plan.
func serviceLayer(env *runEnv, rep *report, shape jobShape, plan loadPlan) error {
	client := newClient()
	defer client.CloseIdleConnections()
	proc, _, err := startGMPD(env.gmpd, client)
	if err != nil {
		return err
	}
	run, err := driveService(shape, env.seed, plan, rep, proc, client)
	if err != nil {
		return err
	}
	d := func(name string) float64 { return run.after[name] - run.before[name] }
	l := run.load
	rep.set("gmpd.result_not_ready", float64(l.notReady))
	rep.setN("http.submit_ms", median(l.submit), len(l.submit))
	rep.setN("http.result_ms", median(l.result), len(l.result))
	rep.setN("gmpd.hit_p50_ms", 1e3*median(l.hits), len(l.hits))
	rep.setN("resultcache.hit_ratio", finite(d("gmpd_cache_hits")/(d("gmpd_cache_hits")+d("gmpd_cache_misses"))), l.completed())
	rep.setN("gmpd.sims_per_fresh_job", d("gmpd_cache_puts")/float64(len(l.fresh)), len(l.fresh))
	rep.setN("gmpd.topology_build_ms", finite(d("gmpd_topology_build_ns_total")/d("gmpd_topology_builds")/1e6), int(d("gmpd_topology_builds")))
	return nil
}
