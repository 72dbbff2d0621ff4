package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

type declared struct {
	Name  string   `json:"name"`
	Unit  string   `json:"unit"`
	Bound *float64 `json:"bound"`
}

// TestCatalogueMatchesBenchmarkJSON keeps the metric catalogue and
// BENCHMARK.json in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []declared `json:"end_to_end"`
		PerLayer  []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		if !validName(w.Name) {
			t.Errorf("workload name %q breaks the charset", w.Name)
		}
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if got := strings.Join(workloadNames(), ","); got != strings.Join(names, ",") {
		t.Errorf("workloads: program has %s, BENCHMARK.json %s", got, names)
	}
	seen := map[string]bool{}
	check := func(ms []declared, e2e bool, cat map[string]string) {
		for _, m := range ms {
			if !validName(m.Name) || !validUnit(m.Unit) {
				t.Errorf("%q/%q breaks the charset", m.Name, m.Unit)
			}
			if seen[m.Name] {
				t.Errorf("%s declared twice", m.Name)
			}
			seen[m.Name] = true
			if cat[m.Name] != m.Unit {
				t.Errorf("%s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, cat[m.Name])
			}
			if (m.Bound != nil) != e2e {
				t.Errorf("%s: bound present=%v, want %v", m.Name, m.Bound != nil, e2e)
			}
		}
		if len(ms) != len(cat) {
			t.Errorf("BENCHMARK.json declares %d metrics, the catalogue %d", len(ms), len(cat))
		}
	}
	check(spec.EndToEnd, true, endToEnd)
	check(spec.PerLayer, false, perLayer)
}

// TestSmokeEveryWorkload runs each workload at minimum size in both modes
// and checks that it emits exactly the mode's catalogue, each metric with
// its unit.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dstressd and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "dstressd")
	if out, err := exec.Command("go", "build", "-o", bin, "dstress/cmd/dstressd").CombinedOutput(); err != nil {
		t.Fatalf("building dstressd: %v\n%s", err, out)
	}
	root := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := runConfig{workload: name, seed: defaultSeed, seconds: time.Second,
				trace: trace, root: root, daemon: bin, smoke: true}
			rec := runRecord(cfg)
			res, err := workloads()[name](cfg, rec)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, res.Correct, res.Attempted, res.Failed)
			}
			cat := catalogue(trace)
			if err := res.complete(trace); err != nil {
				t.Errorf("%s trace=%v: %v", name, trace, err)
			}
			for m, got := range res.Metrics {
				if got.Unit != cat[m] {
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, m, got.Unit, cat[m])
				}
			}
		}
	}
}
