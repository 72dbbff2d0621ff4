// Command perfbench is the repository's end-to-end, layer-attributed
// benchmark. Each invocation runs one workload closed-loop for a fixed
// number of seconds, checks the program's outputs, and prints one JSON
// result object as its last line of standard output:
//
//	perfbench --workload search-data64 --seed 3 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md for the workloads and the layer map). --spread N repeats
// the workload N times over consecutive seeds in child processes and prints
// each metric's median and quartiles. run.sh builds the benchmark and the
// daemon from the checkout's sources and is the entry point to use.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name every metric the benchmark reports, with its
// unit. Every workload reports all of endToEnd untraced and all of perLayer
// traced; BENCHMARK.json declares the same names and units (a test keeps
// the three in step).
var (
	endToEnd = map[string]string{
		"setup_s":           "s",
		"ok_frac":           "frac",
		"evals_per_s":       "1/s",
		"alloc_mb_per_eval": "MB",
	}
	perLayer = map[string]string{
		"ga.self_us_per_eval":         "us",
		"ga.share":                    "frac",
		"core.deploy_us_per_eval":     "us",
		"core.deploy_share":           "frac",
		"server.evaluate_us_per_eval": "us",
		"server.evaluate_share":       "frac",
		"core.prepare_ms":             "ms",
		"core.record_ms":              "ms",
		"runtime.gc_cpu_share":        "frac",
		"memctl.activations_per_eval": "count",
		"dram.kernel_runs_per_eval":   "count",
		"dram.plan_compiles_per_eval": "count",
		"dram.plan_splices_per_eval":  "count",
		"ga.generations_per_search":   "count",
		"core.evals_per_search":       "count",
		"trace.coverage":              "frac",
		"trace.overhead":              "frac",
	}
)

// catalogue returns the metrics a run in the given mode must report.
func catalogue(trace bool) map[string]string {
	if trace {
		return perLayer
	}
	return endToEnd
}

// put records a metric under its catalogued unit.
func (r *result) put(name string, v float64) {
	u, ok := endToEnd[name]
	if !ok {
		u, ok = perLayer[name]
	}
	if !ok {
		panic("perfbench: uncatalogued metric " + name)
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: u}
}

// complete reports the first metric of the mode's catalogue the result
// lacks, so an incomplete result fails the run instead of being printed.
func (r *result) complete(trace bool) error {
	var missing []string
	for name := range catalogue(trace) {
		if _, ok := r.Metrics[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("result lacks %s", strings.Join(missing, ", "))
	}
	return nil
}

// finish fills in the verdict fields from the counts.
func (r *result) finish(attempted, failed int) {
	r.Attempted, r.Failed = attempted, failed
	r.Correct = attempted > 0 && failed == 0
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout the program is built from
	daemon   string // dstressd binary
	// smoke shrinks every workload to its minimum size (one short search,
	// a handful of jobs) for the benchmark's own tests; expected-value
	// checks that depend on the full size are skipped.
	smoke bool
}

// stderr receives diagnostics; the last stdout line is reserved for the
// result.
var stderr io.Writer = os.Stderr

// workloadFunc runs one workload, adding its sizes and settings to the run
// record, and returns its result.
type workloadFunc func(cfg runConfig, rec map[string]any) (*result, error)

func workloads() map[string]workloadFunc {
	w := map[string]workloadFunc{"daemon-mixed": runDaemonMixed}
	for _, d := range searchDefs {
		w[d.name] = func(cfg runConfig, rec map[string]any) (*result, error) {
			return runSearchWorkload(d, cfg, rec)
		}
	}
	return w
}

func main() {
	var (
		cfg      runConfig
		seed     = flag.Uint64("seed", defaultSeed, "workload seed; every input derives from it")
		seconds  = flag.Int("seconds", 20, "measured seconds per run")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
		spread   = flag.Int("spread", 0, "repeat the workload N times over consecutive seeds and report medians and quartiles")
		record   = flag.Bool("record-expected", false, "print the search workloads' expected outputs for the default seed under both determinism contracts")
		workload = flag.String("workload", "", "workload name")
	)
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.daemon, "daemon", "", "dstressd binary (daemon-mixed)")
	flag.Parse()
	cfg.workload, cfg.seed = *workload, *seed
	cfg.seconds = time.Duration(*seconds) * time.Second
	cfg.trace = *trace == 1

	if err := run(cfg, *spread, *record, *trace); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg runConfig, spread int, record bool, trace int) error {
	if record {
		return recordExpected(os.Stdout)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, not %d", trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	fn, ok := workloads()[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", cfg.workload,
			strings.Join(workloadNames(), ", "))
	}
	if spread > 0 {
		return runSpread(cfg, spread, os.Stdout)
	}
	rec := runRecord(cfg)
	s0, t0, haveSteal := cpuTimes()
	res, err := fn(cfg, rec)
	if err != nil {
		return err
	}
	if err := res.complete(cfg.trace); err != nil {
		return err
	}
	if share, ok := stealShare(s0, t0); ok && haveSteal {
		rec["host_steal_share"] = share
	}
	return emit(os.Stdout, rec, res)
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// emit prints the run record and then the result as the last line.
func emit(w *os.File, rec map[string]any, res *result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"record": rec}); err != nil {
		return err
	}
	return enc.Encode(res)
}
