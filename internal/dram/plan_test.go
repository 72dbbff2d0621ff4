package dram

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dstress/internal/xrand"
)

// hostileConfig exaggerates every address-translation quirk — scrambling,
// phase flips, column remaps — so the differential suite exercises the plan
// compiler's cached per-row metadata, not just the nominal layout.
func hostileConfig(seed uint64) Config {
	cfg := DefaultConfig(64, seed)
	cfg.ScrambledRowFrac = 0.5
	cfg.PhaseFlipRowFrac = 0.5
	cfg.RemappedColsPerBank = 4
	return cfg
}

// hammerActs activates the neighbours of every defect row.
func hammerActs(d *Device, rate float64) map[RowKey]float64 {
	acts := map[RowKey]float64{}
	g := d.Geometry()
	for _, k := range d.WeakRows() {
		if k.Row > 0 {
			acts[RowKey{k.Rank, k.Bank, k.Row - 1}] = rate
		}
		if int(k.Row) < g.Rows-1 {
			acts[RowKey{k.Rank, k.Bank, k.Row + 1}] = rate
		}
	}
	return acts
}

// trefpOverrides refreshes every other defect row faster (RAIDR-style).
func trefpOverrides(d *Device, fast float64) map[RowKey]float64 {
	over := map[RowKey]float64{}
	for i, k := range d.WeakRows() {
		if i%2 == 0 {
			over[k] = fast
		}
	}
	return over
}

// checkIdentical runs the fast path and the reference path under identical
// conditions and RNG seeds and requires bit-identical results — counts,
// per-rank counts and the full error log including per-word flip order.
func checkIdentical(t *testing.T, d *Device, p RunParams, seed uint64) {
	t.Helper()
	p.RNG = xrand.New(seed)
	ref, err := d.runReference(p)
	if err != nil {
		t.Fatal(err)
	}
	p.RNG = xrand.New(seed)
	fast, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref, fast) {
		t.Fatalf("fast path diverged from reference\nref:  %+v\nfast: %+v",
			ref, fast)
	}
	// A second fast run from the same seed must reproduce the first: the
	// plan's scratch buffers have to come out clean after every run.
	p.RNG = xrand.New(seed)
	again, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fast, again) {
		t.Fatalf("fast path not self-consistent across runs\nfirst:  %+v\nsecond: %+v",
			fast, again)
	}
}

// TestFastPathMatchesReference is the differential suite: devices with
// nominal and hostile (scramble/phase/remap-heavy) layouts, several fill
// patterns, temperatures across the CE/partial/UE/SDC regimes, nominal and
// relaxed refresh, hammered neighbours, per-row TREFP overrides and
// per-rank temperatures, each at multiple RNG seeds.
func TestFastPathMatchesReference(t *testing.T) {
	fills := map[string]func(*Device){
		"uniform-worst": func(d *Device) { fillUniform(d, 0x3333333333333333) },
		"cluster-fire": func(d *Device) {
			fillPerRow(d, d.ClusterFireWord)
		},
		"partial-cluster": func(d *Device) {
			fillPerRow(d, func(k RowKey) uint64 { return d.ClusterFireWord(k) | 1<<22 })
		},
		"random-sparse": func(d *Device) {
			rng := xrand.New(99)
			for i, k := range d.WeakRows() {
				if i%3 == 0 {
					continue // leave a third of the defect rows unwritten
				}
				d.FillRowWords(k, []uint64{rng.Uint64(), rng.Uint64()})
			}
		},
	}
	for devName, mkCfg := range map[string]func(uint64) Config{
		"nominal": func(s uint64) Config { return DefaultConfig(64, s) },
		"hostile": hostileConfig,
	} {
		for fillName, fill := range fills {
			t.Run(devName+"/"+fillName, func(t *testing.T) {
				d := MustNewDevice(mkCfg(7))
				fill(d)
				for _, temp := range []float64{55, 62, 65, 70} {
					for _, trefp := range []float64{nominalTREFP, relaxedTREFP} {
						p := RunParams{TREFP: trefp, TempC: temp, VDD: relaxedVDD}
						for seed := uint64(0); seed < 3; seed++ {
							checkIdentical(t, d, p, 100+seed)
						}
					}
				}
				// Conditions with hammering, per-row refresh overrides and
				// per-rank temperatures.
				p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
					ActsPerWindow: hammerActs(d, 20000),
					TREFPByRow:    trefpOverrides(d, nominalTREFP),
					TempByRank:    map[int]float64{0: 64, 1: 57},
				}
				for seed := uint64(0); seed < 3; seed++ {
					checkIdentical(t, d, p, 500+seed)
				}
			})
		}
	}
}

// TestFastPathMatchesReferenceAcrossMutations interleaves every mutation
// kind with evaluations: the plan must recompile whenever the written state
// or the defect parameters change.
func TestFastPathMatchesReferenceAcrossMutations(t *testing.T) {
	d := MustNewDevice(hostileConfig(11))
	p := RunParams{TREFP: relaxedTREFP, TempC: 62, VDD: relaxedVDD}

	fillUniform(d, 0x3333333333333333)
	checkIdentical(t, d, p, 1)

	// Point write into a defect row.
	k := d.WeakRows()[0]
	loc := k.Loc()
	d.WriteWord(loc, 0xCCCCCCCCCCCCCCCC)
	checkIdentical(t, d, p, 2)

	// Bulk per-row fills.
	fillPerRow(d, d.ChargeAllWord)
	checkIdentical(t, d, p, 3)

	// Wear-out changes retention times without touching the images.
	if err := d.Age(0.8); err != nil {
		t.Fatal(err)
	}
	checkIdentical(t, d, p, 4)

	// Power cycle empties the device.
	d.Reset()
	checkIdentical(t, d, p, 5)
	fillUniform(d, 0)
	checkIdentical(t, d, p, 6)
}

// fillPerRow writes every row with its own oracle word.
func fillPerRow(d *Device, word func(RowKey) uint64) {
	g := d.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				fillRow(d, k, word(k))
			}
		}
	}
}

// TestAverageRunsMatchesReference replays the ten-run averaging protocol
// against a reference implementation driven by runReference: the RNG split
// sequence and every per-run result must line up.
func TestAverageRunsMatchesReference(t *testing.T) {
	d := MustNewDevice(hostileConfig(13))
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD}

	refAverage := func(p RunParams, n int, rng *xrand.Rand) (float64, float64, float64) {
		var ceSum, sdcSum, ues int
		for i := 0; i < n; i++ {
			p.RNG = rng.Split()
			res, err := d.runReference(p)
			if err != nil {
				t.Fatal(err)
			}
			ceSum += res.CE
			sdcSum += res.SDC
			if res.HasUE() {
				ues++
			}
		}
		return float64(ceSum) / float64(n), float64(sdcSum) / float64(n),
			float64(ues) / float64(n)
	}

	for seed := uint64(0); seed < 3; seed++ {
		wantCE, wantSDC, wantUE := refAverage(p, 10, xrand.New(seed))
		got, err := d.AverageRuns(p, 10, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		gotCE, gotSDC, gotUE := got.MeanCE, got.MeanSDC, got.UEFrac
		if gotCE != wantCE || gotSDC != wantSDC || gotUE != wantUE {
			t.Fatalf("seed %d: AverageRuns (%v,%v,%v) != reference (%v,%v,%v)",
				seed, gotCE, gotSDC, gotUE, wantCE, wantSDC, wantUE)
		}
	}
}

// TestPlanInvalidation pins the staleness contract: a run compiles the
// plan, a write to an already-written row invalidates it, and the next run
// recompiles against the new image.
func TestPlanInvalidation(t *testing.T) {
	d := MustNewDevice(DefaultConfig(64, 3))
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
		RNG: xrand.New(1)}
	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	if d.plan == nil || d.plan.gen != d.gen {
		t.Fatal("run left no current plan")
	}
	compiled := d.plan

	// Re-running without writes must reuse the compiled plan.
	p.RNG = xrand.New(2)
	if _, err := d.Run(p); err != nil {
		t.Fatal(err)
	}
	if d.plan != compiled {
		t.Fatal("unchanged state recompiled the plan")
	}

	// Writing a row — even one already written — must mark the plan stale
	// and the next run must evaluate the new image.
	k := d.WeakRows()[0]
	d.FillRow(k, 0xCCCCCCCCCCCCCCCC)
	if d.plan.gen == d.gen {
		t.Fatal("write did not invalidate the plan")
	}
	checkIdentical(t, d, p, 7)
	if d.plan == compiled || d.plan.gen != d.gen {
		t.Fatal("run after write did not recompile the plan")
	}
}

// TestErrorsOrderDeterministic is the regression test for the error-log
// ordering bug: identical runs must produce identical Errors slices, sorted
// by (rank, bank, row, word col) — on both the fast and reference paths.
func TestErrorsOrderDeterministic(t *testing.T) {
	d := MustNewDevice(DefaultConfig(64, 5))
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 65, VDD: relaxedVDD}

	ordered := func(es []WordError) error {
		for i := 1; i < len(es); i++ {
			a, b := es[i-1], es[i]
			ak := [4]int32{a.Key.Rank, a.Key.Bank, a.Key.Row, int32(a.WordCol)}
			bk := [4]int32{b.Key.Rank, b.Key.Bank, b.Key.Row, int32(b.WordCol)}
			for j := range ak {
				if ak[j] < bk[j] {
					break
				}
				if ak[j] > bk[j] {
					return fmt.Errorf("errors %d and %d out of order: %v >= %v",
						i-1, i, ak, bk)
				}
			}
		}
		return nil
	}

	for _, path := range []struct {
		name string
		run  func(RunParams) (RunResult, error)
	}{{"fast", d.Run}, {"reference", d.runReference}} {
		p.RNG = xrand.New(9)
		a, err := path.run(p)
		if err != nil {
			t.Fatal(err)
		}
		p.RNG = xrand.New(9)
		b, err := path.run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Errors) == 0 {
			t.Fatalf("%s: no errors logged; test needs a failing fill", path.name)
		}
		if !reflect.DeepEqual(a.Errors, b.Errors) {
			t.Fatalf("%s: identical runs produced different error logs", path.name)
		}
		if err := ordered(a.Errors); err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
	}
}

// TestWeakRowsCachedAndCopied: WeakRows must return the precomputed set and
// a caller mutating the returned slice must not corrupt it.
func TestWeakRowsCached(t *testing.T) {
	d := MustNewDevice(DefaultConfig(64, 8))
	a := d.WeakRows()
	if len(a) == 0 {
		t.Fatal("no weak rows")
	}
	a[0] = RowKey{99, 99, 99}
	b := d.WeakRows()
	if b[0] == (RowKey{99, 99, 99}) {
		t.Fatal("WeakRows returned a shared slice")
	}
	if !reflect.DeepEqual(b, d.computeWeakRows()) {
		t.Fatal("cached WeakRows disagrees with recomputation")
	}
}

// TestClonedDevicesConcurrent runs two same-seed devices concurrently —
// the farm's cloned-server pattern. Under -race (make check) this verifies
// the plan and scratch state are strictly per-device.
func TestClonedDevicesConcurrent(t *testing.T) {
	cfg := DefaultConfig(64, 21)
	p := RunParams{TREFP: relaxedTREFP, TempC: 62, VDD: relaxedVDD}
	results := make([]RunResult, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d := MustNewDevice(cfg)
			fillUniform(d, 0x3333333333333333)
			lp := p
			for run := 0; run < 5; run++ {
				lp.RNG = xrand.New(77)
				res, err := d.Run(lp)
				if err != nil {
					t.Error(err)
					return
				}
				results[i] = res
			}
		}(i)
	}
	wg.Wait()
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatal("cloned devices diverged under concurrent evaluation")
	}
}
