package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the spread report reads.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name  string   `json:"name"`
		Bound *float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSpread runs the workload n times in child processes, seeds cfg.seed to
// cfg.seed+n-1, and prints each metric's median, quartiles and
// interquartile spread as a share of the median — the steadiness figure a
// bound must cover. The last line is the same table as JSON.
func runSpread(cfg runConfig, n int, w io.Writer) error {
	if n < 2 {
		return fmt.Errorf("--spread needs at least 2 runs")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	values := map[string][]float64{}
	unitOf := map[string]string{}
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)
		args := []string{"-root", cfg.root, "-daemon", cfg.daemon,
			"--workload", cfg.workload, "--seed", strconv.FormatUint(seed, 10),
			"--seconds", strconv.Itoa(int(cfg.seconds.Seconds())), "--trace", trace}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		res, err := lastResult(out)
		if err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, seed, err)
		}
		if !res.Correct {
			return fmt.Errorf("run %d (seed %d): incorrect (%d of %d failed)",
				i, seed, res.Failed, res.Attempted)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			unitOf[name] = m.Unit
		}
		fmt.Fprintf(w, "run %d seed %d done\n", i+1, seed)
	}

	bounds := map[string]float64{}
	if data, err := os.ReadFile(filepath.Join(cfg.root, "BENCHMARK.json")); err == nil {
		var spec benchmarkSpec
		if json.Unmarshal(data, &spec) == nil {
			for _, m := range spec.EndToEnd {
				if m.Bound != nil {
					bounds[m.Name] = *m.Bound
				}
			}
		}
	}

	type row struct {
		Name   string    `json:"name"`
		Unit   string    `json:"unit"`
		Runs   int       `json:"runs"`
		Q1     float64   `json:"q1"`
		Median float64   `json:"median"`
		Q3     float64   `json:"q3"`
		Spread float64   `json:"spread"`
		Bound  float64   `json:"bound,omitempty"`
		Values []float64 `json:"values"`
	}
	var names []string
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []row
	fmt.Fprintf(w, "%-34s %6s %12s %12s %12s %8s %6s\n",
		"metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, name := range names {
		vs := values[name]
		if len(vs) < 2 {
			continue
		}
		q, err := quartiles(vs)
		if err != nil {
			return err
		}
		r := row{Name: name, Unit: unitOf[name], Runs: len(vs),
			Q1: q[0], Median: q[1], Q3: q[2], Bound: bounds[name], Values: vs}
		if q[1] != 0 {
			r.Spread = (q[2] - q[0]) / q[1]
		}
		rows = append(rows, r)
		bound := "-"
		if b, ok := bounds[name]; ok {
			bound = strconv.FormatFloat(b, 'g', -1, 64)
		}
		fmt.Fprintf(w, "%-34s %6d %12.6g %12.6g %12.6g %8.4f %6s\n",
			name, r.Runs, r.Q1, r.Median, r.Q3, r.Spread, bound)
	}
	return json.NewEncoder(w).Encode(map[string]any{"spread": rows})
}

// lastResult parses the result object on the last non-empty line.
func lastResult(out []byte) (*result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &res, nil
}
