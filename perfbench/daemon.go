package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/farm"
	"dstress/internal/virusdb"
	"dstress/internal/xrand"
)

// Daemon settings of daemon-mixed: a journal, a seglog virus database,
// worker budget 2, and bearer-token auth with one tenant per lane plus an
// operator token for the metrics reads before and after the load.
const (
	daemonBudget  = 2
	daemonLanes   = 2      // generator lanes = connections; nproc on the 2-vCPU reference host
	daemonSpawns  = 9      // daemon starts timed for setup_s; the last one serves the load
	prefillRecs   = 100000 // records in the store before the load
	queryRecs     = 4000   // of them in queryExp
	opsToken      = "tok-ops"
	repeatPercent = 50 // submissions that repeat an earlier seed of the lane
	dbReadPercent = 67 // reads in 100 that query the virusdb instead of the job
	// Fresh-seed jobs a traced run replays in-process for the per-layer
	// metrics, each checked against the daemon's result.
	daemonReplays = 200
)

// Every job appends its final population to jobExp. The virusdb reads query
// queryExp, which only the pre-fill writes to, so a read's cost does not
// grow with the number of jobs the run has done.
const (
	jobExp   = "data64/max-ce/55C"
	queryExp = "data64/max-ce/60C"
)

var laneTokens = [daemonLanes]string{"tok-alpha", "tok-beta"}

// jobDef is the tiny data64 search every submission asks for, as dstressd
// runs it: a fresh simulated server seeded by the job seed.
var jobDef = searchDef{name: "daemon-job", spec: func() core.Spec { return core.Data64Spec{} },
	tempC: 55, gens: 3, pop: 8, rows: 4, runs: 1,
	deviceSeed: func(seed uint64) uint64 { return seed }}

func daemonJob(name string, seed uint64) []byte {
	b, _ := json.Marshal(map[string]any{
		"name": name, "template": "data64", "criterion": "max-ce",
		"temp_c": jobDef.tempC, "generations": jobDef.gens, "population": jobDef.pop,
		"rows": jobDef.rows, "runs": jobDef.runs, "workers": 1, "seed": seed,
	})
	return b
}

// jobView is the part of the daemon's job response the benchmark reads.
type jobView struct {
	ID        int        `json:"id"`
	State     string     `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started"`
	Finished  *time.Time `json:"finished"`
	Result    *outcome   `json:"result"`
}

// metricsView is the part of /api/v1/metrics the benchmark differences.
type metricsView struct {
	Farm struct {
		Evaluations int64   `json:"evaluations"`
		BusySeconds float64 `json:"busy_seconds"`
	} `json:"farm"`
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
}

// jobSample is one closed-loop iteration of a lane.
type jobSample struct {
	submit, turnaround, queue, run time.Duration
	read                           time.Duration
	dbRead                         bool
	evals                          int       // the job's evaluations, cached or computed
	end                            time.Time // when the read returned
}

// varsView is the part of /debug/vars the benchmark differences.
type varsView struct {
	Memstats struct {
		TotalAlloc uint64
	} `json:"memstats"`
}

// daemonProc is one running dstressd.
type daemonProc struct {
	cmd  *exec.Cmd
	base string
	done chan error
}

func runDaemonMixed(cfg runConfig, rec map[string]any) (*result, error) {
	if cfg.daemon == "" {
		return nil, fmt.Errorf("daemon-mixed needs --daemon (run.sh passes it)")
	}
	work := filepath.Join(cfg.root, ".bench_build")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(work, "daemon-mixed-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rng := xrand.New(splitmix(cfg.seed ^ 0xda3e))

	dbPath := filepath.Join(dir, "viruses")
	nPrefill := prefillRecs
	if cfg.smoke {
		nPrefill = 100
	}
	if err := prefill(dbPath, nPrefill, rng.Split()); err != nil {
		return nil, err
	}
	authPath := filepath.Join(dir, "auth.json")
	if err := writeAuth(authPath); err != nil {
		return nil, err
	}
	args := []string{
		"-budget", strconv.Itoa(daemonBudget),
		"-db", dbPath,
		"-journal", filepath.Join(dir, "journal"),
		"-auth", authPath,
		"-rows", "4",
		"-drain", "10s",
	}
	rec["daemon"] = map[string]any{
		"budget": daemonBudget, "journal": true, "auth": true,
		"tenants": daemonLanes, "db": "seglog", "prefill_records": nPrefill,
	}
	rec["lanes"] = daemonLanes

	lanes := &http.Transport{MaxConnsPerHost: daemonLanes,
		MaxIdleConnsPerHost: daemonLanes, DisableCompression: true}
	defer lanes.CloseIdleConnections()
	client := &http.Client{Transport: lanes}

	spawns := daemonSpawns
	if cfg.smoke {
		spawns = 1
	}
	var setups []float64
	var d *daemonProc
	for i := 0; i < spawns; i++ {
		p, took, err := startDaemon(cfg.daemon, args, dir, client)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
		if i == spawns-1 {
			d = p
			break
		}
		if err := p.stop(); err != nil {
			return nil, err
		}
	}
	defer d.stop()

	before, err := readMetrics(client, d.base)
	if err != nil {
		return nil, err
	}
	vars0, err := readVars(client, d.base)
	if err != nil {
		return nil, err
	}
	cpu0, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	self0 := selfCPU()

	type laneOut struct {
		samples           []jobSample
		attempted, failed int
		first             map[uint64]outcome
		fresh             []uint64
	}
	outs := make([]laneOut, daemonLanes)
	laneRNGs := make([]*xrand.Rand, daemonLanes)
	for i := range laneRNGs {
		laneRNGs[i] = rng.Split()
	}
	deadline := cfg.seconds
	maxJobs := 0
	if cfg.smoke {
		maxJobs = 4
	}
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < daemonLanes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l := &lane{id: i, token: laneTokens[i], base: d.base, client: client,
				rng: laneRNGs[i], first: map[uint64]outcome{}}
			for n := 0; time.Since(start) < deadline && (maxJobs == 0 || n < maxJobs); n++ {
				s, attempted, failed := l.iteration(n)
				outs[i].attempted += attempted
				outs[i].failed += failed
				if s != nil {
					outs[i].samples = append(outs[i].samples, *s)
				}
			}
			outs[i].first, outs[i].fresh = l.first, l.fresh
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	self1 := selfCPU()
	cpu1, err := procCPU(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	after, err := readMetrics(client, d.base)
	if err != nil {
		return nil, err
	}
	vars1, err := readVars(client, d.base)
	if err != nil {
		return nil, err
	}
	rss, err := procPeakRSS(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	var samples []jobSample
	attempted, failed := 0, 0
	for _, o := range outs {
		samples = append(samples, o.samples...)
		attempted += o.attempted
		failed += o.failed
	}
	rec["jobs"] = len(samples)
	// Equal quarters show that the daemon's cost does not drift with the
	// number of jobs the run has done.
	rec["jobs_per_s_by_quarter"] = windowRates(samples, start, wall, 4,
		func(jobSample) float64 { return 1 })

	res := &result{}
	if len(samples) == 0 {
		res.finish(attempted, failed)
		return res, nil
	}
	jobs := float64(len(samples))
	evals := 0
	var submit, turn, reads, queue, run, gap, dbReads, statusReads []float64
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	for _, s := range samples {
		evals += s.evals
		submit = append(submit, ms(s.submit))
		turn = append(turn, ms(s.turnaround))
		reads = append(reads, ms(s.read))
		queue = append(queue, ms(s.queue))
		run = append(run, ms(s.run))
		gap = append(gap, ms(s.turnaround-s.submit-s.queue-s.run))
		if s.dbRead {
			dbReads = append(dbReads, ms(s.read))
		} else {
			statusReads = append(statusReads, ms(s.read))
		}
	}
	rec["virusdb_reads"] = len(dbReads)
	rec["evaluations"] = evals

	// The daemon's latencies and layer figures go to the run record: every
	// workload reports the same metrics, and these have no counterpart in
	// the searches.
	busyMs := (after.Farm.BusySeconds - before.Farm.BusySeconds) * 1e3
	cpuMs := (cpu1 - cpu0).Seconds() * 1e3
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	misses := float64(after.Cache.Misses - before.Cache.Misses)
	fig := figures{}
	fig["jobs_per_s"] = jobs / wall.Seconds()
	fig["submit_p50_ms"] = median(submit)
	fig.tail(rec, "submit_p99_ms", submit)
	fig["turnaround_p50_ms"] = median(turn)
	fig.tail(rec, "turnaround_p99_ms", turn)
	fig["read_p50_ms"] = median(reads)
	fig.tail(rec, "read_p99_ms", reads)
	fig["farm.queue_ms_p50"] = median(queue)
	fig.tail(rec, "farm.queue_ms_p99", queue)
	fig["dstressd.run_ms_p50"] = median(run)
	fig.tail(rec, "dstressd.run_ms_p99", run)
	fig["dstressd.result_gap_ms_p50"] = median(gap)
	fig["farm.evals_per_job"] = float64(after.Farm.Evaluations-before.Farm.Evaluations) / jobs
	fig["farm.busy_ms_per_job"] = busyMs / jobs
	if hits+misses > 0 {
		fig["farm.cache_hit_ratio"] = hits / (hits + misses)
	}
	fig["dstressd.cpu_ms_per_job"] = cpuMs / jobs
	fig["dstressd.service_cpu_ms_per_job"] = (cpuMs - busyMs) / jobs
	if len(dbReads) > 0 {
		fig["virusdb.read_ms_p50"] = median(dbReads)
		fig.tail(rec, "virusdb.read_ms_p99", dbReads)
	}
	if len(statusReads) > 0 {
		fig["dstressd.status_read_ms_p50"] = median(statusReads)
	}
	fig["dstressd.peak_rss_mb"] = rss
	fig["loadgen.cpu_ms_per_job"] = (self1 - self0).Seconds() * 1e3 / jobs
	rec["daemon_figures"] = fig

	if !cfg.trace {
		res.finish(attempted, failed)
		res.put("setup_s", median(setups))
		res.put("ok_frac", okFrac(attempted, failed))
		// The median over one-second windows keeps a burst of host noise
		// from moving the figure, as the median over generations does for
		// the searches.
		res.put("evals_per_s", median(windowRates(samples, start, wall,
			max(1, int(wall/time.Second)), func(s jobSample) float64 { return float64(s.evals) })))
		res.put("alloc_mb_per_eval",
			float64(vars1.Memstats.TotalAlloc-vars0.Memstats.TotalAlloc)/float64(evals)/1e6)
		return res, nil
	}

	// The per-layer metrics come from in-process replicas of the run's first
	// fresh-seed jobs, alternating between the lanes. Each must reproduce the
	// daemon's result for its seed, and its traced replica the untraced one.
	const det = 0 // the daemon's default determinism contract
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed++
			fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
		}
	}
	// The jobs are too small to hold a GC cycle each, so the GC share is
	// read over all the replays, which run without forced collections.
	ls := newLayers()
	runtime.GC()
	rt0 := readCPU()
	for i := 0; i < daemonReplays; i++ {
		o := outs[i%daemonLanes]
		if i/daemonLanes >= len(o.fresh) {
			break
		}
		seed := o.fresh[i/daemonLanes]
		attempted += 2
		got, err := runJob(seed, det)
		check(err == nil && got == o.first[seed], "%s: seed %d in-process gave %+v (%v), dstressd gave %+v",
			jobDef.name, seed, got, err, o.first[seed])
		u, err := runUntraced(jobDef, seed, det, false)
		if err != nil {
			check(false, "%s: seed %d on the serial path: %v", jobDef.name, seed, err)
			continue
		}
		ls.replay(jobDef, seed, det, false, u, check)
	}
	runtime.GC()
	rt1 := readCPU()
	ls.gcCPU, ls.cpu = rt1.gc-rt0.gc, rt1.used-rt0.used
	rec["replayed_jobs"] = len(ls.traced)
	res.finish(attempted, failed)
	ls.put(res)
	return res, nil
}

// runJob runs one job in-process on dstressd's path: the farm noise
// protocol with one worker and a fitness cache. The cache is the job's own:
// a fresh seed's job hits only its own duplicate genomes in the daemon's
// shared cache too.
func runJob(seed uint64, det dram.DeterminismVersion) (outcome, error) {
	f, err := newFramework(jobDef, seed)
	if err != nil {
		return outcome{}, err
	}
	res, err := f.RunSearchContext(context.Background(), core.SearchConfig{
		Spec:        jobDef.spec(),
		Criterion:   core.MaxCE,
		Point:       core.Relaxed(jobDef.tempC),
		Determinism: det,
		GA:          jobDef.params(false),
		Workers:     1,
		Cache:       farm.NewCache(),
	})
	if err != nil {
		return outcome{}, err
	}
	return outcome{res.BestFitness, res.Generations, res.Evaluations}, nil
}

// figures are the daemon's own latencies and layer figures, kept in the
// run record.
type figures map[string]float64

// tail records a p99 when the percentile rule allows it, and notes the
// refusal in the run record otherwise.
func (f figures) tail(rec map[string]any, name string, samples []float64) {
	if v, ok := tail(samples, 0.99); ok {
		f[name] = v
		return
	}
	refused, _ := rec["refused_tails"].([]string)
	rec["refused_tails"] = append(refused, fmt.Sprintf("%s (%d samples)", name, len(samples)))
}

// lane is one closed-loop generator connection, submitting as one tenant.
type lane struct {
	id     int
	token  string
	base   string
	client *http.Client
	rng    *xrand.Rand
	fresh  []uint64           // seeds this lane submitted first, in order
	first  map[uint64]outcome // result of each seed's first job
}

// iteration submits one job, waits for it, checks it, and makes one read.
// It returns the sample (nil when the job failed) and the operation counts.
func (l *lane) iteration(n int) (s *jobSample, attempted, failed int) {
	seed := l.rng.Uint64()
	repeat := len(l.fresh) > 0 && l.rng.Intn(100) < repeatPercent
	if repeat {
		seed = l.fresh[l.rng.Intn(len(l.fresh))]
	}
	// The read mix is exact in every run, so the read percentiles do not move
	// with how a seed happens to split reads between the two kinds.
	dbRead := n*dbReadPercent%100 < dbReadPercent

	attempted = 1
	fail := func(format string, args ...any) (*jobSample, int, int) {
		fmt.Fprintf(stderr, "perfbench: lane %d job %d: "+format+"\n",
			append([]any{l.id, n}, args...)...)
		return nil, attempted, failed + 1
	}
	t0 := time.Now()
	var sub jobView
	code, err := l.do("POST", "/api/v1/jobs", daemonJob(fmt.Sprintf("bench-%d-%d", l.id, n), seed), &sub)
	t1 := time.Now()
	if err != nil || code != http.StatusAccepted {
		return fail("submit: status %d, %v", code, err)
	}
	var v jobView
	code, err = l.do("GET", fmt.Sprintf("/api/v1/jobs/%d/wait", sub.ID), nil, &v)
	t2 := time.Now()
	if err != nil || code != http.StatusOK {
		return fail("wait: status %d, %v", code, err)
	}
	if v.State != "done" || v.Result == nil || v.Started == nil || v.Finished == nil {
		return fail("job %d ended %q without a result", sub.ID, v.State)
	}
	if want, ok := l.first[seed]; ok {
		if v.Result.BestFitness != want.BestFitness {
			return fail("seed %d: best_fitness %v, first job with it gave %v",
				seed, v.Result.BestFitness, want.BestFitness)
		}
	} else {
		l.first[seed] = *v.Result
		l.fresh = append(l.fresh, seed)
	}

	attempted++
	path := fmt.Sprintf("/api/v1/jobs/%d", sub.ID)
	if dbRead {
		path = "/api/v1/virusdb?" + url.Values{
			"experiment": {queryExp}, "limit": {"10"}}.Encode()
	}
	t3 := time.Now()
	code, err = l.do("GET", path, nil, nil)
	t4 := time.Now()
	if err != nil || code != http.StatusOK {
		return fail("read %s: status %d, %v", path, code, err)
	}
	return &jobSample{
		submit:     t1.Sub(t0),
		turnaround: t2.Sub(t0),
		queue:      v.Started.Sub(v.Submitted),
		run:        v.Finished.Sub(*v.Started),
		read:       t4.Sub(t3),
		dbRead:     dbRead,
		evals:      v.Result.Evaluations,
		end:        t4,
	}, attempted, failed
}

// windowRates splits the load window into n equal windows and returns the
// rate of each: w summed over the samples that ended in the window, per
// second.
func windowRates(samples []jobSample, start time.Time, wall time.Duration, n int,
	w func(jobSample) float64) []float64 {
	q := wall / time.Duration(n)
	rates := make([]float64, n)
	for _, s := range samples {
		rates[min(int(s.end.Sub(start)/q), n-1)] += w(s)
	}
	for i := range rates {
		rates[i] /= q.Seconds()
	}
	return rates
}

// do makes one request as the lane's tenant, decoding a JSON body into out
// when out is non-nil; the body is always drained so the connection is
// reused.
func (l *lane) do(method, path string, body []byte, out any) (int, error) {
	return request(l.client, method, l.base+path, l.token, body, out)
}

func request(c *http.Client, method, u, token string, body []byte, out any) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

func readMetrics(c *http.Client, base string) (metricsView, error) {
	var m metricsView
	code, err := request(c, "GET", base+"/api/v1/metrics", opsToken, nil, &m)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("metrics: status %d", code)
	}
	return m, err
}

func readVars(c *http.Client, base string) (varsView, error) {
	var v varsView
	code, err := request(c, "GET", base+"/debug/vars", opsToken, nil, &v)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("debug/vars: status %d", code)
	}
	return v, err
}

// prefill writes n records into a fresh seglog virus database: a fifth of
// them, at most queryRecs, in the queried experiment and the rest spread
// over four others, so each daemon start replays a store of realistic size.
// It is not timed.
func prefill(path string, n int, rng *xrand.Rand) error {
	db, err := virusdb.Open(path)
	if err != nil {
		return err
	}
	nQuery := min(n/5, queryRecs)
	others := []string{jobExp, "data64/min-ce/55C",
		"data24k/max-ce/60C", "access-rows/max-ce/60C"}
	const batch = 500
	recs := make([]virusdb.Record, 0, batch)
	for i := 0; i < n; i++ {
		var bits strings.Builder
		for b := 0; b < 64; b++ {
			bits.WriteByte('0' + byte(rng.Intn(2)))
		}
		fit := 20 + 20*rng.Float64()
		exp := queryExp
		if i >= nQuery {
			exp = others[i%len(others)]
		}
		recs = append(recs, virusdb.Record{
			Experiment: exp, Bits: bits.String(),
			Fitness: fit, MeanCE: fit, Generation: rng.Intn(80),
			TempC: 55, TREFP: 2.283, VDD: 1.428,
		})
		if len(recs) == batch || i == n-1 {
			if err := db.Append(recs...); err != nil {
				db.Close()
				return err
			}
			recs = recs[:0]
		}
	}
	return db.Close()
}

func writeAuth(path string) error {
	cfg := map[string]any{
		"tokens": map[string]string{
			laneTokens[0]: "alpha", laneTokens[1]: "beta", opsToken: "ops"},
		"tenants": map[string]any{
			"alpha": map[string]int{"max_jobs": 4, "weight": 1},
			"beta":  map[string]int{"max_jobs": 4, "weight": 1},
		},
		"admins": []string{"ops"},
	}
	b, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o600)
}

// freeAddr picks a loopback port that is free right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon spawns dstressd and returns once /api/v1/metrics answers 200,
// with the time from spawn to that answer.
func startDaemon(bin string, args []string, dir string, c *http.Client) (*daemonProc, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(filepath.Join(dir, "dstressd.log"),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon must not outlive the benchmark, however it ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	p := &daemonProc{cmd: cmd, base: "http://" + addr, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	for {
		code, err := request(c, "GET", p.base+"/api/v1/metrics", opsToken, nil, nil)
		if err == nil && code == http.StatusOK {
			return p, time.Since(t0), nil
		}
		select {
		case err := <-p.done:
			p.done <- err
			return nil, 0, fmt.Errorf("dstressd exited during start-up (%v); see %s",
				err, logf.Name())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Since(t0) > 30*time.Second {
			p.stop()
			return nil, 0, fmt.Errorf("dstressd did not answer within 30s")
		}
	}
}

// stop sends SIGTERM, waits for the drain, and kills the daemon if it
// overstays. It is safe to call more than once.
func (p *daemonProc) stop() error {
	if p == nil {
		return nil
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		p.done <- err
	case <-time.After(15 * time.Second):
		p.cmd.Process.Kill()
		err := <-p.done
		p.done <- err
		return fmt.Errorf("dstressd ignored SIGTERM")
	}
	return nil
}

// procCPU returns a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	var ticks int64
	for _, s := range f[11:13] {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += v
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ticks) * time.Second / clkTck, nil
}

// procPeakRSS returns a process's peak resident set (VmHWM) in MB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb * 1024 / 1e6, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// selfCPU returns the benchmark process's own user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
