package dram

import (
	"reflect"
	"testing"

	"dstress/internal/addrmap"
	"dstress/internal/xrand"
)

// Operating points used throughout the paper's evaluation.
const (
	relaxedTREFP = 2.283 // seconds — the platform maximum, 35x nominal
	nominalTREFP = 0.064
	relaxedVDD   = 1.428
	nominalVDD   = 1.5
)

// fillUniform writes the same 64-bit word to every column of every row.
func fillUniform(d *Device, word uint64) {
	g := d.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				for col := 0; col < g.WordsPerRow(); col++ {
					d.WriteWord(addrmap.Loc{Rank: rank, Bank: bank,
						Row: row, Col: col}, word)
				}
			}
		}
	}
}

// fillRow writes one word across a whole row.
func fillRow(d *Device, k RowKey, word uint64) {
	g := d.Geometry()
	for col := 0; col < g.WordsPerRow(); col++ {
		d.WriteWord(addrmap.Loc{Rank: int(k.Rank), Bank: int(k.Bank),
			Row: int(k.Row), Col: col}, word)
	}
}

// fillPerRowChargeAll writes every row with its own scramble-aware
// charge-all word.
func fillPerRowChargeAll(d *Device) {
	g := d.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{Rank: int32(rank), Bank: int32(bank), Row: int32(row)}
				fillRow(d, k, d.ChargeAllWord(k))
			}
		}
	}
}

// fillTailored24K emulates the ideal 24-KByte pattern: every weak row holds
// its charge-all word, its physically adjacent rows hold discharge-all
// words. Rows that are both weak and neighbours of weak rows stay charged.
func fillTailored24K(d *Device) {
	g := d.Geometry()
	weak := map[RowKey]bool{}
	for _, k := range d.WeakRows() {
		weak[k] = true
	}
	for _, k := range d.WeakRows() {
		for _, dr := range []int32{-1, 1} {
			n := RowKey{Rank: k.Rank, Bank: k.Bank, Row: k.Row + dr}
			if int(n.Row) < 0 || int(n.Row) >= g.Rows || weak[n] {
				continue
			}
			fillRow(d, n, d.DischargeAllWord(n))
		}
	}
	for _, k := range d.WeakRows() {
		fillRow(d, k, d.ChargeAllWord(k))
	}
}

func meanCE(t *testing.T, d *Device, p RunParams, runs int, seed uint64) float64 {
	t.Helper()
	res, err := d.AverageRuns(p, runs, xrand.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return res.MeanCE
}

func relaxedParams() RunParams {
	return RunParams{TREFP: relaxedTREFP, TempC: 55, VDD: relaxedVDD}
}

func TestRunParamValidation(t *testing.T) {
	d := testDevice(t, 1)
	cases := []RunParams{
		{TREFP: 0, TempC: 50, VDD: 1.5, RNG: xrand.New(1)},
		{TREFP: 1, TempC: 50, VDD: 0, RNG: xrand.New(1)},
		{TREFP: 1, TempC: 50, VDD: 1.5, RNG: nil},
	}
	for i, p := range cases {
		if _, err := d.Run(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
	if _, err := d.AverageRuns(relaxedParams(), 0, xrand.New(1)); err == nil {
		t.Error("AverageRuns accepted n=0")
	}
}

func TestEmptyDeviceNoErrors(t *testing.T) {
	d := testDevice(t, 2)
	p := relaxedParams()
	p.RNG = xrand.New(1)
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CE != 0 || res.UE != 0 || res.SDC != 0 {
		t.Fatalf("errors on unwritten device: %+v", res)
	}
}

func TestWorstPatternProducesErrors(t *testing.T) {
	d := testDevice(t, 3)
	fillUniform(d, 0x3333333333333333)
	ce := meanCE(t, d, relaxedParams(), 5, 42)
	if ce < 5 {
		t.Fatalf("worst-case fill produced only %.1f CEs on average", ce)
	}
}

func TestNominalParametersNearlyErrorFree(t *testing.T) {
	d := testDevice(t, 3)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.TREFP = nominalTREFP
	p.VDD = nominalVDD
	p.TempC = 50
	ce := meanCE(t, d, p, 10, 42)
	relaxed := meanCE(t, d, relaxedParams(), 10, 42)
	if ce > relaxed/20 {
		t.Fatalf("nominal params CEs %.2f vs relaxed %.2f: margin too small",
			ce, relaxed)
	}
}

// TestWorstVsBestRatio reproduces the paper's ~8x gap between the CEs of
// the worst-case (charge-all, repeating '1100') and best-case (discharge-
// all, repeating '0011') 64-bit patterns.
func TestWorstVsBestRatio(t *testing.T) {
	worstSum, bestSum := 0.0, 0.0
	for seed := uint64(0); seed < 3; seed++ {
		d := testDevice(t, 100+seed)
		fillUniform(d, 0x3333333333333333)
		worstSum += meanCE(t, d, relaxedParams(), 10, seed)
		d.Reset()
		fillUniform(d, 0xCCCCCCCCCCCCCCCC)
		bestSum += meanCE(t, d, relaxedParams(), 10, seed)
	}
	if bestSum == 0 {
		t.Fatalf("best-case produced zero CEs (worst %.1f); gain path dead",
			worstSum)
	}
	ratio := worstSum / bestSum
	t.Logf("worst/best CE ratio = %.2f (worst %.1f, best %.1f)",
		ratio, worstSum/3, bestSum/3)
	if ratio < 4 || ratio > 16 {
		t.Fatalf("worst/best ratio %.2f outside [4,16] (paper: ~8x)", ratio)
	}
}

// TestTemperatureMonotonic: CE counts must grow with temperature.
func TestTemperatureMonotonic(t *testing.T) {
	d := testDevice(t, 4)
	fillUniform(d, 0x3333333333333333)
	prev := -1.0
	for _, temp := range []float64{50, 55, 60, 65} {
		p := relaxedParams()
		p.TempC = temp
		ce := meanCE(t, d, p, 10, 7)
		t.Logf("T=%.0f°C: %.1f CEs", temp, ce)
		if ce <= prev {
			t.Fatalf("CEs not increasing with temperature: %.1f at %v after %.1f",
				ce, temp, prev)
		}
		prev = ce
	}
}

// TestVoltageEffect: lowering VDD must increase CEs.
func TestVoltageEffect(t *testing.T) {
	d := testDevice(t, 5)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.VDD = nominalVDD
	hi := meanCE(t, d, p, 10, 9)
	p.VDD = relaxedVDD
	lo := meanCE(t, d, p, 10, 9)
	if lo <= hi {
		t.Fatalf("CEs at 1.428V (%.1f) not above 1.5V (%.1f)", lo, hi)
	}
}

// TestTailoredBeatsUniform reproduces the paper's Fig 9 shape: the ideal
// per-row (24-KByte-style) pattern yields ~16% more CEs than the uniform
// worst-case 64-bit fill.
func TestTailoredBeatsUniform(t *testing.T) {
	uniformSum, tailoredSum := 0.0, 0.0
	for seed := uint64(0); seed < 3; seed++ {
		d := testDevice(t, 200+seed)
		p := relaxedParams()
		p.TempC = 60
		fillUniform(d, 0x3333333333333333)
		uniformSum += meanCE(t, d, p, 10, seed)
		d.Reset()
		fillTailored24K(d)
		tailoredSum += meanCE(t, d, p, 10, seed)
	}
	gain := tailoredSum/uniformSum - 1
	t.Logf("tailored 24K gain over uniform worst: %.1f%% (%.1f vs %.1f)",
		gain*100, tailoredSum/3, uniformSum/3)
	if gain < 0.05 || gain > 0.40 {
		t.Fatalf("24K gain %.1f%% outside [5%%,40%%] (paper: ~16%%)", gain*100)
	}
}

// TestHammerIncreasesCEs: activations of adjacent rows must raise the error
// count of the hammered rows, and more activations raise it further.
func TestHammerIncreasesCEs(t *testing.T) {
	d := testDevice(t, 6)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.TempC = 60
	base := meanCE(t, d, p, 10, 11)

	mkActs := func(rate float64) map[RowKey]float64 {
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
	p.ActsPerWindow = mkActs(5000)
	hammered := meanCE(t, d, p, 10, 11)
	p.ActsPerWindow = mkActs(50000)
	hard := meanCE(t, d, p, 10, 11)
	t.Logf("base %.1f, hammered(5k) %.1f (+%.0f%%), hammered(50k) %.1f",
		base, hammered, (hammered/base-1)*100, hard)
	if hammered <= base {
		t.Fatal("hammering did not increase CEs")
	}
	if hard <= hammered {
		t.Fatal("stronger hammering did not increase CEs further")
	}
}

// TestClusterUEOnset reproduces the paper's UE temperature behaviour:
//   - the synthesized cluster-firing pattern produces UEs at 62 °C in
//     (nearly) every run, but none at 60 °C;
//   - the worst-case CE pattern produces no UEs at 62 °C;
//   - MSCAN all-0s produces no UEs at 65 °C but does at 70 °C;
//   - checkerboard produces no UEs even at 70 °C.
func TestClusterUEOnset(t *testing.T) {
	d := testDevice(t, 7)
	g := d.Geometry()
	fire := func(word func(RowKey) uint64) {
		d.Reset()
		for rank := 0; rank < g.Ranks; rank++ {
			for bank := 0; bank < g.Banks; bank++ {
				for row := 0; row < g.Rows; row++ {
					k := RowKey{int32(rank), int32(bank), int32(row)}
					fillRow(d, k, word(k))
				}
			}
		}
	}
	ueFrac := func(temp float64, seed uint64) float64 {
		p := relaxedParams()
		p.TempC = temp
		res, err := d.AverageRuns(p, 10, xrand.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return res.UEFrac
	}

	fire(d.ClusterFireWord)
	if f := ueFrac(62, 1); f < 0.9 {
		t.Fatalf("cluster-fire pattern at 62°C: UE fraction %.2f, want ~1", f)
	}
	if f := ueFrac(60, 2); f > 0 {
		t.Fatalf("cluster-fire pattern at 60°C produced UEs (frac %.2f)", f)
	}

	fire(d.ChargeAllWord)
	if f := ueFrac(62, 3); f > 0 {
		t.Fatalf("CE-worst pattern at 62°C produced UEs (frac %.2f)", f)
	}

	fire(func(RowKey) uint64 { return 0 }) // MSCAN all-0s
	if f := ueFrac(65, 4); f > 0 {
		t.Fatalf("all-0s at 65°C produced UEs (frac %.2f)", f)
	}
	if f := ueFrac(70, 5); f < 0.9 {
		t.Fatalf("all-0s at 70°C: UE fraction %.2f, want ~1", f)
	}

	fire(func(RowKey) uint64 { return 0xAAAAAAAAAAAAAAAA })
	if f := ueFrac(70, 6); f > 0 {
		t.Fatalf("checkerboard at 70°C produced UEs (frac %.2f)", f)
	}
}

// TestUEWordsAreMultiBit: the flips of a UE word must number >= 2.
func TestUEWordsAreMultiBit(t *testing.T) {
	d := testDevice(t, 8)
	g := d.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				fillRow(d, k, d.ClusterFireWord(k))
			}
		}
	}
	p := relaxedParams()
	p.TempC = 62
	p.RNG = xrand.New(33)
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HasUE() {
		t.Fatal("expected UEs at 62°C with cluster-fire fill")
	}
	for _, we := range res.Errors {
		if we.Status.String() == "UE" && len(we.Flips) < 2 {
			t.Fatalf("UE word with %d flips", len(we.Flips))
		}
	}
}

// TestVRTRunToRunVariation: with VRT cells present, two runs under identical
// conditions but different RNG streams should usually differ in CE count.
func TestVRTRunToRunVariation(t *testing.T) {
	d := testDevice(t, 9)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	diff := false
	var prev int
	for i := 0; i < 8; i++ {
		p.RNG = xrand.New(uint64(1000 + i))
		res, err := d.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.CE != prev {
			diff = true
		}
		prev = res.CE
	}
	if !diff {
		t.Fatal("no run-to-run variation across 8 runs")
	}
}

// TestRunDeterministicGivenRNG: identical seeds must give identical results.
func TestRunDeterministicGivenRNG(t *testing.T) {
	d := testDevice(t, 10)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.RNG = xrand.New(5)
	a, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	p.RNG = xrand.New(5)
	b, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.CE != b.CE || a.UE != b.UE || a.SDC != b.SDC {
		t.Fatalf("same seed, different results: %+v vs %+v", a, b)
	}
}

// TestCEByRankAccounting: per-rank CE counts must sum to the total.
func TestCEByRankAccounting(t *testing.T) {
	d := testDevice(t, 11)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.TempC = 60
	p.RNG = xrand.New(3)
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, c := range res.CEByRank {
		sum += c
	}
	if sum != res.CE {
		t.Fatalf("rank counts sum %d != CE %d", sum, res.CE)
	}
}

// TestDIMMVariation: devices with different strength scales must show large
// CE differences under identical stress (the paper's Fig 1b DIMM-to-DIMM
// variation).
func TestDIMMVariation(t *testing.T) {
	mk := func(scale float64) float64 {
		cfg := DefaultConfig(64, 77)
		cfg.StrengthScale = scale
		d := MustNewDevice(cfg)
		fillUniform(d, 0x3333333333333333)
		p := relaxedParams()
		p.TempC = 60
		res, err := d.AverageRuns(p, 10, xrand.New(1))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCE
	}
	weak := mk(0.7)
	strong := mk(12)
	t.Logf("weak DIMM %.1f CEs, strong DIMM %.2f CEs", weak, strong)
	if weak < strong*20 {
		t.Fatalf("insufficient DIMM-to-DIMM variation: %.1f vs %.1f", weak, strong)
	}
}

func BenchmarkRunWorstFill(b *testing.B) {
	d, err := NewDevice(DefaultConfig(64, 1))
	if err != nil {
		b.Fatal(err)
	}
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.RNG = xrand.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Run(p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPerRankTemperature: heating one rank hotter must raise only that
// rank's error count — the testbed's independent per-rank heaters matter.
func TestPerRankTemperature(t *testing.T) {
	d := testDevice(t, 60)
	fillUniform(d, 0x3333333333333333)
	p := relaxedParams()
	p.TempC = 55
	p.TempByRank = map[int]float64{0: 66, 1: 55}
	p.RNG = xrand.New(7)
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CEByRank[0] <= res.CEByRank[1] {
		t.Fatalf("hot rank 0 (%d CEs) not above cool rank 1 (%d CEs)",
			res.CEByRank[0], res.CEByRank[1])
	}
	// Uniform temperatures keep the ranks comparable.
	p.TempByRank = nil
	uniform, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := uniform.CEByRank[0], uniform.CEByRank[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo*3 < hi {
		t.Fatalf("uniform heating gave unbalanced ranks: %v", uniform.CEByRank)
	}
}

// TestPartialClusterSDC reproduces the paper's SECDED warning: errors of
// more than two bits can be *miscorrected*. A defect cluster with exactly
// three of its four cells charged fails as a 3-bit flip at ~65°C, which the
// (72,64) code miscorrects into silent data corruption.
func TestPartialClusterSDC(t *testing.T) {
	d := testDevice(t, 70)
	g := d.Geometry()
	for rank := 0; rank < g.Ranks; rank++ {
		for bank := 0; bank < g.Banks; bank++ {
			for row := 0; row < g.Rows; row++ {
				k := RowKey{int32(rank), int32(bank), int32(row)}
				// Fire word with cluster bit 22 discharged: 3 charged cells.
				fillRow(d, k, d.ClusterFireWord(k)|1<<22)
			}
		}
	}
	p := relaxedParams()
	p.TempC = 65
	p.RNG = xrand.New(3)
	res, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.SDC == 0 {
		t.Fatalf("no silent data corruption from 3-cell cluster failures (CE=%d UE=%d)",
			res.CE, res.UE)
	}
	if res.UE > 0 {
		t.Fatalf("3-bit cluster failures detected as UEs (%d) — expected miscorrection", res.UE)
	}
	// The SDC words must carry exactly the three cluster flips.
	for _, we := range res.Errors {
		if we.SDC && len(we.Flips) != 3 {
			t.Fatalf("SDC word with %d flips", len(we.Flips))
		}
	}
	// At 62°C the same pattern is only in the partial band: single-cell
	// leaks, correctable.
	p.TempC = 62
	p.RNG = xrand.New(4)
	res62, err := d.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res62.SDC != 0 {
		t.Fatalf("SDCs already at 62°C (%d)", res62.SDC)
	}
}

// averageRunsOracle is AverageRuns as a per-run loop over Run: each run
// builds its full error log, and the counts and per-rank CEs are summed and
// divided at the end. It shares nothing with the counts-only averaging tail
// it checks but the kernel.
func averageRunsOracle(t *testing.T, d *Device, p RunParams, n int,
	rng *xrand.Rand) BatchResult {
	t.Helper()
	var ce, sdc, ues int
	perRank := make([]int, d.Geometry().Ranks)
	for i := 0; i < n; i++ {
		p.RNG = rng.Split()
		r, err := d.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		ce += r.CE
		sdc += r.SDC
		if r.HasUE() {
			ues++
		}
		for rank, k := range r.CEByRank {
			perRank[rank] += k
		}
	}
	res := BatchResult{MeanCE: float64(ce) / float64(n),
		MeanSDC: float64(sdc) / float64(n), UEFrac: float64(ues) / float64(n)}
	for rank, k := range perRank {
		if k > 0 {
			if res.CEByRank == nil {
				res.CEByRank = make([]float64, len(perRank))
			}
			res.CEByRank[rank] = float64(k) / float64(n)
		}
	}
	return res
}

// TestAverageRunsMatchesRunAggregation: under both determinism contracts,
// the counts-only averaging tail returns exactly what aggregating full Run
// results gives, with per-rank temperatures, hammering and per-row TREFP
// overrides all in play, over a CE-heavy fill and a UE-heavy one.
func TestAverageRunsMatchesRunAggregation(t *testing.T) {
	fills := map[string]func(*Device){
		"uniform-worst": func(d *Device) { fillUniform(d, 0x3333333333333333) },
		"cluster-fire":  func(d *Device) { fillPerRow(d, d.ClusterFireWord) },
	}
	sawCE, sawUE := false, false
	for name, fill := range fills {
		d := MustNewDevice(hostileConfig(7))
		fill(d)
		for _, det := range []DeterminismVersion{DeterminismV1, DeterminismV2} {
			p := RunParams{TREFP: relaxedTREFP, TempC: 62, VDD: relaxedVDD,
				Version:       det,
				TempByRank:    map[int]float64{0: 66, 1: 58},
				ActsPerWindow: hammerActs(d, 20000),
				TREFPByRow:    trefpOverrides(d, nominalTREFP),
			}
			for seed := uint64(0); seed < 3; seed++ {
				want := averageRunsOracle(t, d, p, 10, xrand.New(seed))
				got, err := d.AverageRuns(p, 10, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s seed %d: AverageRuns %+v, per-run oracle %+v",
						name, det, seed, got, want)
				}
				sawCE = sawCE || want.CEByRank != nil
				sawUE = sawUE || want.UEFrac > 0
			}
		}
	}
	if !sawCE || !sawUE {
		t.Fatalf("CEs seen %v, UEs seen %v; the comparison is vacuous",
			sawCE, sawUE)
	}
}
