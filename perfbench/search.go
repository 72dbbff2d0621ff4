package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/experiments"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

// defaultSeed is the workload seed the expected search outputs are
// committed for.
const defaultSeed = 1

// setupProbes is how many extra set-ups a search run times before its
// searches, so setup_s is a median over enough samples to be steady.
const setupProbes = 31

// searchDef is one search and the simulated hardware it runs on.
type searchDef struct {
	name  string
	spec  func() core.Spec
	tempC float64
	gens  int // MaxGenerations of one search
	pop   int // GA population
	rows  int // rows per bank
	runs  int // runs per virus
	// deviceSeed is the simulated hardware's seed for a search seed.
	deviceSeed func(seed uint64) uint64
	// gcEach collects the heap before each search, so one search's garbage
	// is not collected during the next and each search's GC share can be
	// read on its own.
	gcEach bool
}

// figure is one of the paper's searches on QuickConfig's simulated hardware
// (16 rows/bank, 8 runs per virus, device seed fixed) with the paper's GA
// (population 40).
func figure(name string, spec func() core.Spec, tempC float64, gens int) searchDef {
	q := experiments.QuickConfig()
	return searchDef{name: name, spec: spec, tempC: tempC, gens: gens,
		pop: ga.DefaultParams().PopulationSize, rows: q.RowsPerBank, runs: q.Runs,
		deviceSeed: func(uint64) uint64 { return q.Seed }, gcEach: true}
}

var searchDefs = []searchDef{
	// Fig 10: the 512-KByte data-pattern search.
	figure("search-block512k", func() core.Spec { return core.NewData512KSpec() }, 60, 3),
	// Fig 11: the row-selection access virus over the worst 64-bit fill.
	figure("search-access-rows", func() core.Spec {
		return core.NewAccessRowsSpec(0x3333333333333333)
	}, 60, 5),
	// Fig 8a: the 64-bit data-pattern search at 55 °C.
	figure("search-data64", func() core.Spec { return core.Data64Spec{} }, 55,
		experiments.QuickConfig().SearchGens),
}

// outcome is what a search must reproduce exactly.
type outcome struct {
	BestFitness float64 `json:"best_fitness"`
	Generations int     `json:"generations"`
	Evaluations int     `json:"evaluations"`
}

//go:embed expected.json
var expectedJSON []byte

// expectedSearches is how many leading searches of a run at defaultSeed
// have committed outcomes — about three times what fits in a 20 s run at
// the time of recording, so a faster program is still checked throughout.
var expectedSearches = map[string]int{
	"search-block512k":   15,
	"search-access-rows": 30,
	"search-data64":      60,
}

// expectedOutcomes maps workload → determinism contract → the outcomes of
// the run's searches, in order, at defaultSeed.
func expectedOutcomes() (map[string]map[string][]outcome, error) {
	var out map[string]map[string][]outcome
	err := json.Unmarshal(expectedJSON, &out)
	return out, err
}

// searchSeed derives the seed of a run's i-th search from the workload
// seed. Every search of a run starts from a different seed, so a run's
// figures average over the search trajectories instead of riding on one.
// The simulated hardware keeps QuickConfig's seed: the device under test is
// fixed, the searches explore it from different starting points.
func searchSeed(seed uint64, workload string, i int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return splitmix(splitmix(seed^h.Sum64()) + uint64(i))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (d searchDef) params(smoke bool) ga.Params {
	p := ga.DefaultParams()
	p.PopulationSize = d.pop
	p.MaxGenerations = d.gens
	if smoke {
		p.MaxGenerations = 1
	}
	return p
}

// newFramework builds the search's server and a framework seeded for the
// search, as experiments.NewEngine (figures) and dstressd (jobs) do.
func newFramework(d searchDef, seed uint64) (*core.Framework, error) {
	srv, err := server.New(server.DefaultConfig(d.rows, d.deviceSeed(seed)))
	if err != nil {
		return nil, err
	}
	f, err := core.New(srv, xrand.New(seed))
	if err != nil {
		return nil, err
	}
	f.Runs = d.runs
	return f, nil
}

// countingSpec counts RunSearch's deployments, one per evaluation, and
// marks the first: it ends the search's set-up.
type countingSpec struct {
	core.Spec
	first   time.Time
	deploys int
}

func (s *countingSpec) Deploy(f *core.Framework, g ga.Genome) error {
	if s.deploys == 0 {
		s.first = time.Now()
	}
	s.deploys++
	return s.Spec.Deploy(f, g)
}

// untracedSearch is one RunSearch on the serial path cmd/experiments uses.
type untracedSearch struct {
	out      outcome
	contract string
	setup    time.Duration // framework build until the first evaluation
	wall     time.Duration
	alloc    uint64 // TotalAlloc delta over the whole search
	// genRates holds each generation's evaluations per second: the
	// evaluations between two generation boundaries (the first generation
	// counts from the first evaluation) over the wall time between them,
	// breeding included.
	genRates []float64
}

func runUntraced(d searchDef, seed uint64, det dram.DeterminismVersion,
	smoke bool) (untracedSearch, error) {
	var s untracedSearch
	if d.gcEach {
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f, err := newFramework(d, seed)
	if err != nil {
		return s, err
	}
	spec := &countingSpec{Spec: d.spec()}
	var lastT time.Time
	lastN := 0
	res, err := f.RunSearch(core.SearchConfig{
		Spec:        spec,
		Criterion:   core.MaxCE,
		Point:       core.Relaxed(d.tempC),
		Determinism: det,
		GA:          d.params(smoke),
		OnGeneration: func(ga.GenStats) {
			now := time.Now()
			if lastN == 0 {
				lastT = spec.first
			}
			s.genRates = append(s.genRates,
				float64(spec.deploys-lastN)/now.Sub(lastT).Seconds())
			lastT, lastN = now, spec.deploys
		},
	})
	end := time.Now()
	if err != nil {
		return s, err
	}
	runtime.ReadMemStats(&m1)
	s.out = outcome{res.BestFitness, res.Generations, res.Evaluations}
	s.contract = f.Srv.Determinism().Normalize().String()
	s.setup = spec.first.Sub(t0)
	s.wall = end.Sub(t0)
	s.alloc = m1.TotalAlloc - m0.TotalAlloc
	return s, nil
}

// setupProbe times a search's set-up alone: framework build, Apply,
// Prepare and the initial population, in RunSearch's order.
func setupProbe(d searchDef, seed uint64, det dram.DeterminismVersion) (time.Duration, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := newFramework(d, seed)
	if err != nil {
		return 0, err
	}
	spec := d.spec()
	if err := f.Srv.SetDeterminism(det); err != nil {
		return 0, err
	}
	if err := f.Apply(core.Relaxed(d.tempC)); err != nil {
		return 0, err
	}
	if err := spec.Prepare(f); err != nil {
		return 0, err
	}
	f.RNG.Split()
	spec.NewPopulation(f, d.pop, f.RNG.Split())
	return time.Since(t0), nil
}

// tracedSearch is one search through the replica of RunSearch's serial
// path, with every layer call inside a span.
type tracedSearch struct {
	out         outcome
	wall        time.Duration
	activations uint64 // memctl activations summed over the GA's deployments
	eval        dram.EvalStats
	// runtime/metrics deltas (cpu excludes idle). The runtime updates them
	// at the end of each GC cycle, so they hold only for gcEach searches.
	gcCPU, cpu float64
}

// runTraced rebuilds RunSearch's serial path from public calls: the same
// RNG split order, ga.NewBatch over a batch fitness that deploys and
// measures each genome in order, and the winner's re-measurement.
func runTraced(d searchDef, seed uint64, det dram.DeterminismVersion, smoke bool,
	tr *tracer) (tracedSearch, error) {
	var s tracedSearch
	if d.gcEach {
		runtime.GC()
	}
	cpu0 := readCPU()
	tr.begin("search")
	defer func() { tr.stack = tr.stack[:0] }() // drop spans an error left open

	tr.begin("server.build")
	f, err := newFramework(d, seed)
	tr.end()
	if err != nil {
		return s, err
	}
	spec := d.spec()
	point := core.Relaxed(d.tempC)
	params := d.params(smoke)

	tr.begin("core.apply")
	err = f.Srv.SetDeterminism(det)
	if err == nil {
		err = f.Apply(point)
	}
	tr.end()
	if err != nil {
		return s, err
	}
	tr.begin("core.prepare")
	err = spec.Prepare(f)
	tr.end()
	if err != nil {
		return s, err
	}
	tr.begin("core.init_population")
	engRNG := f.RNG.Split()
	initial := spec.NewPopulation(f, params.PopulationSize, f.RNG.Split())
	tr.end()

	ctl := f.Srv.MCU(f.MCU)
	batch := func(ctx context.Context, gs []ga.Genome) ([]float64, error) {
		tr.begin("core.fitness")
		defer tr.end()
		out := make([]float64, len(gs))
		for i, g := range gs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			tr.begin("core.deploy")
			err := spec.Deploy(f, g)
			tr.end()
			if err != nil {
				return nil, err
			}
			s.activations += ctl.Activations()
			tr.begin("server.evaluate")
			m, err := f.Measure()
			tr.end()
			if err != nil {
				return nil, err
			}
			out[i] = core.MaxCE.Fitness(m)
		}
		return out, nil
	}

	tr.begin("ga.run")
	ev0 := dram.EvalSnapshot()
	eng, err := ga.NewBatch(params, batch, engRNG)
	if err != nil {
		tr.end()
		return s, err
	}
	boundaries := 0
	eng.OnGeneration = func(ga.GenStats) { boundaries++ }
	res, err := eng.RunContext(context.Background(), initial)
	ev1 := dram.EvalSnapshot()
	tr.end()
	if err != nil {
		return s, err
	}
	if boundaries != res.Generations {
		return s, fmt.Errorf("%d generation boundaries for %d generations",
			boundaries, res.Generations)
	}

	tr.begin("core.record")
	err = spec.Deploy(f, res.Best)
	if err == nil {
		_, err = f.Measure()
	}
	tr.end()
	if err != nil {
		return s, err
	}
	s.wall = tr.end()
	gc1 := readCPU()
	s.gcCPU, s.cpu = gc1.gc-cpu0.gc, gc1.used-cpu0.used
	s.out = outcome{res.BestFitness, res.Generations, eng.Evaluations}
	s.eval = evalDelta(ev0, ev1)
	return s, nil
}

func evalDelta(a, b dram.EvalStats) dram.EvalStats {
	return dram.EvalStats{
		SingleRuns:   b.SingleRuns - a.SingleRuns,
		BatchRuns:    b.BatchRuns - a.BatchRuns,
		PlanCompiles: b.PlanCompiles - a.PlanCompiles,
		PlanSplices:  b.PlanSplices - a.PlanSplices,
	}
}

type cpuReading struct{ gc, used float64 }

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// readCPU reads the runtime's CPU accounting: GC CPU and all non-idle CPU.
func readCPU() cpuReading {
	metrics.Read(cpuSamples)
	v := func(i int) float64 {
		if cpuSamples[i].Value.Kind() != metrics.KindFloat64 {
			return 0
		}
		return cpuSamples[i].Value.Float64()
	}
	return cpuReading{gc: v(0), used: v(1) - v(2)}
}

// runSearchWorkload runs searches closed-loop, each from the next derived
// seed, until the run's seconds are spent, then repeats the first search to
// check that it reproduces. Untraced, it reports the end-to-end metrics;
// traced, each search is followed by a traced replica of the same search
// and the per-layer metrics come from the replicas' spans.
func runSearchWorkload(d searchDef, cfg runConfig, rec map[string]any) (*result, error) {
	const det = 0 // the server's default determinism contract
	rec["generations_per_search_max"] = d.params(cfg.smoke).MaxGenerations
	rec["population"] = d.pop
	rec["rows_per_bank"] = d.rows
	rec["runs_per_virus"] = d.runs

	var setups []float64
	probes := setupProbes
	if cfg.smoke {
		probes = 1
	}
	for i := 0; i < probes; i++ {
		t, err := setupProbe(d, searchSeed(cfg.seed, d.name, 0), det)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t.Seconds())
	}

	var (
		attempted, failed int
		untraced          []untracedSearch
		ls                = newLayers()
	)
	check := func(ok bool, format string, args ...any) {
		if !ok {
			failed++
			fmt.Fprintf(stderr, "perfbench: "+format+"\n", args...)
		}
	}
	start := time.Now()
	for i := 0; time.Since(start) < cfg.seconds && !(cfg.smoke && i > 0); i++ {
		seed := searchSeed(cfg.seed, d.name, i)
		attempted++
		u, err := runUntraced(d, seed, det, cfg.smoke)
		if err != nil {
			check(false, "%s: search %d: %v", d.name, i, err)
			continue
		}
		untraced = append(untraced, u)
		setups = append(setups, u.setup.Seconds())
		if cfg.seed == defaultSeed && !cfg.smoke {
			checkExpected(d.name, i, u, check)
		}
		if cfg.trace {
			attempted++
			ls.replay(d, seed, det, cfg.smoke, u, check)
		}
	}
	if len(untraced) > 0 {
		attempted++
		again, err := runUntraced(d, searchSeed(cfg.seed, d.name, 0), det, cfg.smoke)
		check(err == nil && again.out == untraced[0].out,
			"%s: first search repeated gave %+v (%v), first run gave %+v",
			d.name, again.out, err, untraced[0].out)
		rec["determinism"] = untraced[0].contract
	}
	var evals, gens int
	for _, u := range untraced {
		evals += u.out.Evaluations
		gens += u.out.Generations
	}
	rec["searches"] = len(untraced)
	rec["evaluations"] = evals
	rec["generations"] = gens

	res := &result{}
	res.finish(attempted, failed)
	if !cfg.trace {
		var rates []float64
		var alloc uint64
		for _, u := range untraced {
			rates = append(rates, u.genRates...)
			alloc += u.alloc
		}
		res.put("setup_s", median(setups))
		res.put("ok_frac", okFrac(attempted, failed))
		if evals > 0 {
			res.put("evals_per_s", median(rates))
			res.put("alloc_mb_per_eval", float64(alloc)/float64(evals)/1e6)
		}
		return res, nil
	}
	ls.put(res)
	return res, nil
}

// checkExpected compares a default-seed search with the committed outcome
// for the contract the server actually ran under.
func checkExpected(name string, i int, u untracedSearch,
	check func(bool, string, ...any)) {
	exp, err := expectedOutcomes()
	if err != nil {
		check(false, "expected.json: %v", err)
		return
	}
	want, ok := exp[name][u.contract]
	check(ok, "%s: no expected outcomes for contract %s", name, u.contract)
	if ok && i < len(want) {
		check(u.out == want[i], "%s (%s): search %d gave %+v, expected %+v",
			name, u.contract, i, u.out, want[i])
	}
}

// layers collects traced replicas of untraced searches for the per-layer
// metrics.
type layers struct {
	tr                       *tracer
	traced                   []tracedSearch
	untracedWall, tracedWall time.Duration
	gcCPU, cpu               float64 // for runtime.gc_cpu_share
}

func newLayers() *layers { return &layers{tr: newTracer()} }

// replay runs the traced replica of the untraced search u, which ran from
// seed, and checks that the replica reproduces it exactly.
func (l *layers) replay(d searchDef, seed uint64, det dram.DeterminismVersion,
	smoke bool, u untracedSearch, check func(bool, string, ...any)) {
	t, err := runTraced(d, seed, det, smoke, l.tr)
	if err != nil {
		check(false, "%s: traced search (seed %d): %v", d.name, seed, err)
		return
	}
	check(t.out == u.out, "%s: traced search (seed %d) gave %+v, untraced gave %+v",
		d.name, seed, t.out, u.out)
	l.traced = append(l.traced, t)
	l.untracedWall += u.wall
	l.tracedWall += t.wall
	if d.gcEach {
		l.gcCPU += t.gcCPU
		l.cpu += t.cpu
	}
}

// put reduces the replicas' spans to the per-layer metrics.
func (l *layers) put(res *result) {
	lt, traced := l.tr.totals(), l.traced
	untracedWall, tracedWall := l.untracedWall, l.tracedWall
	if len(traced) == 0 {
		return
	}
	var evals, gens int
	var acts uint64
	var ev dram.EvalStats
	for _, t := range traced {
		evals += t.out.Evaluations
		gens += t.out.Generations
		acts += t.activations
		ev.SingleRuns += t.eval.SingleRuns
		ev.BatchRuns += t.eval.BatchRuns
		ev.PlanCompiles += t.eval.PlanCompiles
		ev.PlanSplices += t.eval.PlanSplices
	}
	wall := lt["search"].Dur
	perEval := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / float64(evals)
	}
	share := func(d time.Duration) float64 { return d.Seconds() / wall.Seconds() }
	n := float64(len(traced))

	var covered time.Duration
	for name, t := range lt {
		if name != "search" {
			covered += t.Self
		}
	}
	gaSelf := lt["ga.run"].Self
	res.put("ga.self_us_per_eval", perEval(gaSelf))
	res.put("ga.share", share(gaSelf))
	res.put("core.deploy_us_per_eval", perEval(lt["core.deploy"].Dur))
	res.put("core.deploy_share", share(lt["core.deploy"].Dur))
	res.put("server.evaluate_us_per_eval", perEval(lt["server.evaluate"].Dur))
	res.put("server.evaluate_share", share(lt["server.evaluate"].Dur))
	res.put("core.prepare_ms", lt["core.prepare"].Dur.Seconds()*1e3/n)
	res.put("core.record_ms", lt["core.record"].Dur.Seconds()*1e3/n)
	if l.cpu > 0 {
		res.put("runtime.gc_cpu_share", l.gcCPU/l.cpu)
	}
	res.put("memctl.activations_per_eval", float64(acts)/float64(evals))
	res.put("dram.kernel_runs_per_eval", float64(ev.SingleRuns+ev.BatchRuns)/float64(evals))
	res.put("dram.plan_compiles_per_eval", float64(ev.PlanCompiles)/float64(evals))
	res.put("dram.plan_splices_per_eval", float64(ev.PlanSplices)/float64(evals))
	res.put("ga.generations_per_search", float64(gens)/n)
	res.put("core.evals_per_search", float64(evals)/n)
	res.put("trace.coverage", share(covered))
	res.put("trace.overhead", tracedWall.Seconds()/untracedWall.Seconds()-1)
}

func okFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(attempted-failed) / float64(attempted)
}

// recordExpected runs the leading searches of every search workload at the
// default seed under each determinism contract and prints the outcomes in
// expected.json's format.
func recordExpected(w io.Writer) error {
	out := map[string]map[string][]outcome{}
	for _, d := range searchDefs {
		out[d.name] = map[string][]outcome{}
		for _, det := range []dram.DeterminismVersion{dram.DeterminismV1, dram.DeterminismV2} {
			for i := 0; i < expectedSearches[d.name]; i++ {
				u, err := runUntraced(d, searchSeed(defaultSeed, d.name, i), det, false)
				if err != nil {
					return err
				}
				out[d.name][u.contract] = append(out[d.name][u.contract], u.out)
			}
		}
	}
	// One outcome per line keeps the file reviewable as a diff.
	var b strings.Builder
	b.WriteString("{")
	for i, d := range searchDefs {
		fmt.Fprintf(&b, "%s\n  %q: {", sep(i), d.name)
		for j, contract := range []string{"v1", "v2"} {
			fmt.Fprintf(&b, "%s\n    %q: [", sep(j), contract)
			for k, o := range out[d.name][contract] {
				line, err := json.Marshal(o)
				if err != nil {
					return err
				}
				fmt.Fprintf(&b, "%s\n      %s", sep(k), line)
			}
			b.WriteString("\n    ]")
		}
		b.WriteString("\n  }")
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// sep is the separator before the i-th element of a JSON list.
func sep(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}
