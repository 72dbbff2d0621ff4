package dram

// Ablation tests: each test disables one mechanism of the retention model
// and checks that the paper-shape result that depends on it disappears —
// evidence that the reproduction's behaviours come from the intended
// mechanisms rather than incidental tuning (the design choices are listed
// in DESIGN.md §4).

import (
	"testing"

	"dstress/internal/xrand"
)

// ablatedDevice builds a device with modified physics.
func ablatedDevice(t *testing.T, seed uint64, mod func(*Physics)) *Device {
	t.Helper()
	cfg := DefaultConfig(64, seed)
	mod(&cfg.Physics)
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func meanCEOf(t *testing.T, d *Device, temp float64, runs int) float64 {
	t.Helper()
	p := RunParams{TREFP: relaxedTREFP, TempC: temp, VDD: relaxedVDD}
	res, err := d.AverageRuns(p, runs, xrand.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return res.MeanCE
}

// TestAblationVerticalCoupling: without the vertical discharged-neighbour
// coupling, the tailored (24-KByte-style) pattern loses its advantage over
// the uniform worst fill — the Fig 9 result depends on that mechanism.
func TestAblationVerticalCoupling(t *testing.T) {
	gain := func(delta float64) float64 {
		d := ablatedDevice(t, 300, func(p *Physics) { p.VCouplingDelta = delta })
		fillUniform(d, 0x3333333333333333)
		uniform := meanCEOf(t, d, 60, 10)
		d.Reset()
		fillTailored24K(d)
		tailored := meanCEOf(t, d, 60, 10)
		return tailored/uniform - 1
	}
	withCoupling := gain(DefaultPhysics().VCouplingDelta)
	without := gain(0)
	t.Logf("tailored gain with vertical coupling %+.1f%%, without %+.1f%%",
		withCoupling*100, without*100)
	if withCoupling < without+0.05 {
		t.Fatalf("vertical coupling does not explain the block-pattern gain")
	}
}

// TestAblationLateralCoupling: without the lateral charged-neighbour
// coupling, the charge-all pattern's margin over a half-charged fill
// (checkerboard-like) shrinks substantially — the Fig 8e margin depends on
// it.
func TestAblationLateralCoupling(t *testing.T) {
	margin := func(alpha float64) float64 {
		d := ablatedDevice(t, 301, func(p *Physics) { p.CouplingAlpha = alpha })
		fillUniform(d, 0x3333333333333333)
		worst := meanCEOf(t, d, 60, 10)
		d.Reset()
		fillUniform(d, 0xAAAAAAAAAAAAAAAA)
		half := meanCEOf(t, d, 60, 10)
		return worst / half
	}
	withCoupling := margin(DefaultPhysics().CouplingAlpha)
	without := margin(0)
	t.Logf("worst/checkerboard with lateral coupling %.2fx, without %.2fx",
		withCoupling, without)
	if withCoupling <= without {
		t.Fatal("lateral coupling does not widen the worst-pattern margin")
	}
}

// TestAblationGainFactor: with an effectively infinite charge-gain factor,
// discharged cells never fail, so the best-case pattern's error count drops
// to the residue produced by scrambled/phase-flipped rows (where the
// "discharge-all" word still charges cells) — the finite worst/best ratio
// (~8x) depends on the charge-gain mechanism contributing the rest.
func TestAblationGainFactor(t *testing.T) {
	bestCE := func(gain float64) float64 {
		d := ablatedDevice(t, 302, func(p *Physics) { p.GainFactor = gain })
		fillUniform(d, 0xCCCCCCCCCCCCCCCC)
		return meanCEOf(t, d, 60, 10)
	}
	finite := bestCE(DefaultPhysics().GainFactor)
	infinite := bestCE(1e9)
	t.Logf("best-case CEs: finite gain %.1f, infinite gain %.1f (scrambled-row residue)",
		finite, infinite)
	if finite <= infinite+2 {
		t.Fatalf("charge-gain mechanism contributes nothing: %.1f vs %.1f",
			finite, infinite)
	}
	// And the residue itself must come from the scrambled/flipped rows:
	// with scrambling also ablated, infinite gain leaves zero errors.
	cfg := DefaultConfig(64, 302)
	cfg.Physics.GainFactor = 1e9
	cfg.ScrambledRowFrac = 0
	cfg.PhaseFlipRowFrac = 0
	d, err := NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fillUniform(d, 0xCCCCCCCCCCCCCCCC)
	// A small residue remains even then: weak cells under ECC *check* bits
	// cannot be discharged by choosing data — the check bits are a
	// function of the data word. Only that residue may survive.
	residue := meanCEOf(t, d, 60, 10)
	t.Logf("check-bit residue with no scrambling + infinite gain: %.1f CEs", residue)
	if residue > finite/4 {
		t.Fatalf("residue %.1f too large to be the check-bit population", residue)
	}
}

// TestAblationVRT: without variable retention time there is no run-to-run
// variation — the ten-run averaging protocol exists because of VRT.
func TestAblationVRT(t *testing.T) {
	d := ablatedDevice(t, 303, func(p *Physics) { p.VRTProb = 0 })
	fillUniform(d, 0x3333333333333333)
	p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD}
	rng := xrand.New(5)
	var first int
	for i := 0; i < 6; i++ {
		p.RNG = rng.Split()
		res, err := d.Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = res.CE
		} else if res.CE != first {
			t.Fatalf("VRT disabled but run %d gave %d CEs vs %d", i, res.CE, first)
		}
	}
}

// TestAblationTauFloor: without the retention floor, some weak cells fail
// even at the nominal refresh period — the usable Fig 14 guardband depends
// on the floor.
func TestAblationTauFloor(t *testing.T) {
	nominalCE := func(floor float64) float64 {
		d := ablatedDevice(t, 304, func(p *Physics) {
			p.TauFloor = floor
			// Keep the distribution's scale comparable: without the floor
			// the whole log-normal shifts down to where the floor was.
			if floor == 0 {
				p.RetMu = DefaultPhysics().RetMu
				p.RetSigma = 2.2
			}
		})
		fillUniform(d, 0x3333333333333333)
		p := RunParams{TREFP: nominalTREFP, TempC: 60, VDD: nominalVDD}
		res, err := d.AverageRuns(p, 10, xrand.New(2))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCE
	}
	withFloor := nominalCE(DefaultPhysics().TauFloor)
	without := nominalCE(0)
	t.Logf("nominal-parameter CEs: with floor %.2f, without %.2f",
		withFloor, without)
	if withFloor != 0 {
		t.Fatalf("floored distribution fails at nominal parameters (%.2f CEs)",
			withFloor)
	}
	if without == 0 {
		t.Fatal("floorless distribution unexpectedly safe at nominal parameters")
	}
}

// TestAblationHammer: without the hammer coefficient, neighbouring-row
// activations add nothing — the Fig 11/12 access-virus results depend on it.
func TestAblationHammer(t *testing.T) {
	gain := func(beta float64) float64 {
		d := ablatedDevice(t, 305, func(p *Physics) { p.HammerBeta = beta })
		fillUniform(d, 0x3333333333333333)
		base := meanCEOf(t, d, 60, 10)
		acts := map[RowKey]float64{}
		g := d.Geometry()
		for _, k := range d.WeakRows() {
			if k.Row > 0 {
				acts[RowKey{k.Rank, k.Bank, k.Row - 1}] = 50000
			}
			if int(k.Row) < g.Rows-1 {
				acts[RowKey{k.Rank, k.Bank, k.Row + 1}] = 50000
			}
		}
		p := RunParams{TREFP: relaxedTREFP, TempC: 60, VDD: relaxedVDD,
			ActsPerWindow: acts}
		res, err := d.AverageRuns(p, 10, xrand.New(3))
		if err != nil {
			t.Fatal(err)
		}
		return res.MeanCE/base - 1
	}
	withHammer := gain(DefaultPhysics().HammerBeta)
	without := gain(0)
	t.Logf("hammer gain: with beta %+.0f%%, without %+.0f%%",
		withHammer*100, without*100)
	if without > 0.02 {
		t.Fatalf("hammer disabled but activations still added %.0f%%", without*100)
	}
	if withHammer < 0.2 {
		t.Fatalf("hammer enabled but gain only %.0f%%", withHammer*100)
	}
}

// TestAblationClusterExternalCoupling: without the cluster's external
// coupling, the synthesized UE pattern cannot fire below the standalone
// onset (~66°C) — the 62 °C UE discovery depends on it.
func TestAblationClusterExternalCoupling(t *testing.T) {
	ueAt62 := func(extAlpha float64) float64 {
		d := ablatedDevice(t, 306, func(p *Physics) { p.ClusterExtAlpha = extAlpha })
		g := d.Geometry()
		for rank := 0; rank < g.Ranks; rank++ {
			for bank := 0; bank < g.Banks; bank++ {
				for row := 0; row < g.Rows; row++ {
					k := RowKey{int32(rank), int32(bank), int32(row)}
					fillRow(d, k, d.ClusterFireWord(k))
				}
			}
		}
		p := RunParams{TREFP: relaxedTREFP, TempC: 62, VDD: relaxedVDD}
		res, err := d.AverageRuns(p, 10, xrand.New(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.UEFrac
	}
	withExt := ueAt62(DefaultPhysics().ClusterExtAlpha)
	without := ueAt62(0)
	t.Logf("UE fraction at 62°C: with external coupling %.2f, without %.2f",
		withExt, without)
	if withExt < 0.9 || without > 0 {
		t.Fatal("external coupling does not gate the 62°C UE onset")
	}
}
