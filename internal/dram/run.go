package dram

import (
	"fmt"
	"math"
	"sort"

	"dstress/internal/ecc"
	"dstress/internal/xrand"
)

// RunParams are the operating conditions of one evaluation run — one
// simulated execution interval of a virus or benchmark, corresponding to the
// paper's 2-hour measurement runs.
type RunParams struct {
	TREFP float64 // refresh period in seconds (nominal DDR3: 0.064)
	TempC float64 // DIMM temperature in °C
	VDD   float64 // supply voltage in volts (nominal DDR3: 1.5)

	// TempByRank overrides TempC per rank: the thermal testbed heats each
	// DIMM rank independently, so experiments can stress one rank hotter.
	// Ranks absent from the map use TempC.
	TempByRank map[int]float64

	// TREFPByRow overrides the refresh period per row, modelling
	// retention-aware refresh schemes (RAIDR-style): rows binned as weak
	// refresh faster than the rest. Rows absent from the map use TREFP.
	TREFPByRow map[RowKey]float64

	// ActsPerWindow gives, per row, the number of activations the row
	// receives during one refresh window (as produced by the memory
	// controller model). Rows absent from the map are not activated beyond
	// refresh. Nil means no explicit accesses.
	ActsPerWindow map[RowKey]float64

	// RNG drives per-run stochastic effects (VRT state, cluster jitter). It
	// must be non-nil; re-running with a fresh generator models the
	// run-to-run variation the paper averages over ten runs.
	RNG *xrand.Rand

	// Version selects the determinism contract the stochastic terms follow.
	// The zero value means DeterminismV1 — the original sequential-draw
	// contract every recorded experiment and v1 checkpoint is pinned to.
	// DeterminismV2 evaluates on counter-based per-cell streams (run_v2.go,
	// kernel in batch.go): same physics, different (and order-independent) noise draws, so v1 and
	// v2 results are each self-consistent but not comparable to one another.
	Version DeterminismVersion
}

// Validate reports whether the parameters are usable.
func (p RunParams) Validate() error {
	switch {
	case p.TREFP <= 0:
		return fmt.Errorf("dram: TREFP = %v", p.TREFP)
	case p.VDD <= 0:
		return fmt.Errorf("dram: VDD = %v", p.VDD)
	case p.RNG == nil:
		return fmt.Errorf("dram: RunParams.RNG is nil")
	}
	return p.Version.Validate()
}

// WordError describes one corrupted 72-bit word observed in a run.
type WordError struct {
	Key     RowKey
	WordCol int
	Flips   []int // codeword bit positions that flipped (0..71)
	Status  ecc.Status
	SDC     bool // decode returned wrong data without signalling UE
}

// RunResult aggregates the ECC log of one run.
type RunResult struct {
	CE  int // correctable errors (one per affected word)
	UE  int // uncorrectable (detected multi-bit) errors
	SDC int // silent data corruptions (miscorrected or aliased words)

	// CEByRank splits the CEs per rank, for spatial-distribution figures.
	CEByRank map[int]int

	Errors []WordError
}

// HasUE reports whether the run hit at least one uncorrectable error; the
// paper's framework kills a virus as soon as the OS sees a UE.
func (r RunResult) HasUE() bool { return r.UE > 0 }

// Run evaluates the device under the given conditions: every weak cell and
// defect cluster located in a written row is tested against the retention
// model, the resulting bit flips are grouped per word, and each corrupted
// word is pushed through the SECDED decoder to classify it as CE, UE or SDC.
// Errors are sorted by (rank, bank, row, word col).
//
// Under determinism v1, Run executes on the compiled evaluation plan (see
// plan.go): everything that depends only on the written state is resolved
// once per state, and each run applies only the operating conditions, the
// stochastic VRT/jitter terms and the threshold compares. Results —
// including the RNG stream consumed and the Errors log — are bit-identical
// to the plan-free reference evaluation the differential suite keeps in
// reference_test.go. Under v2, Run is a batch of one: RunBatch with a single
// item that writes nothing.
//
// A Device is not safe for concurrent use; the farm gives every worker its
// own clone.
func (d *Device) Run(p RunParams) (RunResult, error) {
	if err := p.Validate(); err != nil {
		return RunResult{}, err
	}
	if p.Version.Normalize() == DeterminismV2 {
		out, err := d.RunBatch(p, []BatchItem{{Apply: applyNothing, RNG: p.RNG}})
		if err != nil {
			return RunResult{}, err
		}
		return out[0], nil
	}
	evalMet.singleRuns.Add(1)
	return d.accumulateV1(p).classify(), nil
}

// applyNothing is the Apply of a batch of one: the device already holds the
// state to evaluate.
func applyNothing(*Device) error { return nil }

// accumulateV1 runs one v1 run over the compiled plan, filling its flip
// scratch in the reference's draw order. The caller drains the scratch with
// one of the classification tails.
func (d *Device) accumulateV1(p RunParams) *evalPlan {
	phys := d.cfg.Physics
	pl := d.planFor()

	if cap(d.envScratch) < d.geom.Ranks {
		d.envScratch = make([]float64, d.geom.Ranks)
	}
	envByRank := d.envScratch[:d.geom.Ranks]
	for rank := range envByRank {
		temp := p.TempC
		if t, ok := p.TempByRank[rank]; ok {
			temp = t
		}
		envByRank[rank] = phys.tempFactor(temp) * phys.vddFactor(p.VDD)
	}

	rng := p.RNG
	for ri := range pl.rows {
		row := &pl.rows[ri]
		hammer := d.hammerFor(row.key, p.ActsPerWindow)
		envFactor := envByRank[row.key.Rank]
		trefp := p.TREFP
		if t, ok := p.TREFPByRow[row.key]; ok {
			trefp = t
		}
		hammerDiv := 1 + phys.HammerBeta*hammer
		clHammerDiv := 1 + phys.ClusterHammerB*hammer

		for i := row.cellLo; i < row.cellHi; i++ {
			c := &pl.cells[i]
			tau := c.tau0 * envFactor
			if c.vrt && rng.Bool(0.5) {
				tau *= c.vrtMult
			}
			tau /= c.couplingDiv
			tau /= hammerDiv
			var fails bool
			if c.charged {
				fails = tau < trefp
			} else {
				fails = tau*phys.GainFactor < trefp
			}
			if fails {
				pl.addFlip(c.cand, int(c.bit))
			}
		}

		for i := row.clLo; i < row.clHi; i++ {
			k := &pl.clusters[i]
			jitter := math.Exp(rng.Norm(0, phys.ClusterJitter))
			tau := k.tau0 * envFactor * jitter
			tau /= k.clusterDiv
			tau /= clHammerDiv
			if tau >= trefp*pl.partialBand {
				continue
			}
			if tau >= trefp {
				pl.addFlip(k.cand, int(k.partialBit))
				continue
			}
			for _, b := range k.fullBits {
				pl.addFlip(k.cand, b)
			}
		}
	}
	return pl
}

// classify decodes the accumulated flips of a run, draining the scratch.
// Corrupted words are visited in index order — candidates are laid out
// row-major with ascending word columns, so the log comes out sorted.
// Touched indices can be out of order only within one row. Both determinism
// versions share this tail: flips in, sorted ECC log out.
func (pl *evalPlan) classify() RunResult {
	sort.Ints(pl.touched)
	res := RunResult{CEByRank: make(map[int]int)}
	for _, wi := range pl.touched {
		bits := pl.flips[wi]
		pw := &pl.words[wi]
		word := pw.enc
		for _, b := range bits {
			word = word.FlipBit(b)
		}
		dec := ecc.Decode(word)
		we := WordError{Key: pw.key, WordCol: pw.col,
			Flips: append([]int(nil), bits...), Status: dec.Status}
		switch {
		case dec.Status == ecc.Uncorrectable:
			res.UE++
		case dec.Data != pw.original:
			we.SDC = true
			res.SDC++
		case dec.Status == ecc.Corrected:
			res.CE++
			res.CEByRank[int(pw.key.Rank)]++
		}
		res.Errors = append(res.Errors, we)
		pl.flips[wi] = bits[:0]
	}
	pl.touched = pl.touched[:0]
	return res
}

// hammerFor returns the per-window activations of the rows physically
// adjacent to key — the disturbance its cells experience.
func (d *Device) hammerFor(key RowKey, acts map[RowKey]float64) float64 {
	if acts == nil {
		return 0
	}
	h := 0.0
	if key.Row > 0 {
		h += acts[RowKey{key.Rank, key.Bank, key.Row - 1}]
	}
	if int(key.Row) < d.geom.Rows-1 {
		h += acts[RowKey{key.Rank, key.Bank, key.Row + 1}]
	}
	return h
}

// clusterNeighbourBits are the word bits flanking the cluster positions
// {17,18} and {21,22}.
var clusterNeighbourBits = []int{16, 19, 20, 23}

// storedBit returns the value of stored bit `bit` (0..71) of word col in
// row key, and whether the row is written. Bits 64..71 are the ECC check
// bits, recomputed from the data as the controller would store them.
func (d *Device) storedBit(key RowKey, col, bit int) (bool, bool) {
	img, ok := d.rows[key]
	if !ok {
		return false, false
	}
	if bit < 64 {
		return img[col]&(1<<uint(bit)) != 0, true
	}
	check := ecc.Checksum(img[col])
	return check&(1<<uint(bit-64)) != 0, true
}

// chargedAtPhys reports the charge state of the cell at physical bit
// position pos of row key. The second result is false when the state is
// unknown: out-of-range positions and unwritten rows, which contribute to
// no coupling at all.
func (d *Device) chargedAtPhys(key RowKey, pos int) (charged, known bool) {
	if pos < 0 || pos >= d.geom.WordsPerRow()*bitsPerWord {
		return false, false
	}
	physCol := pos / bitsPerWord
	q := pos % bitsPerWord
	logCol := d.physWordCol(key.Bank, physCol) // remap is an involution
	logBit := q
	if q < 64 {
		logBit = q ^ d.ScrambleMask(key)
	}
	v, ok := d.storedBit(key, logCol, logBit)
	if !ok {
		return false, false
	}
	return v == (d.CellTypeAt(key, pos) == TrueCell), true
}

// neighbourCoupling returns the two data-dependent coupling terms of a cell
// at position pos of row key: the number of *charged* lateral neighbours
// (same row, positions pos±1) and the number of *discharged* vertical
// neighbours (same position, physically adjacent rows). Cells in unwritten
// rows contribute to neither.
func (d *Device) neighbourCoupling(key RowKey, pos int) (lateral, vertical int) {
	if c, ok := d.chargedAtPhys(key, pos-1); ok && c {
		lateral++
	}
	if c, ok := d.chargedAtPhys(key, pos+1); ok && c {
		lateral++
	}
	if key.Row > 0 {
		if c, ok := d.chargedAtPhys(RowKey{key.Rank, key.Bank, key.Row - 1},
			pos); ok && !c {
			vertical++
		}
	}
	if int(key.Row) < d.geom.Rows-1 {
		if c, ok := d.chargedAtPhys(RowKey{key.Rank, key.Bank, key.Row + 1},
			pos); ok && !c {
			vertical++
		}
	}
	return lateral, vertical
}

// AverageRuns executes n runs with fresh RNG splits and returns their mean
// CE and SDC counts, the fraction of runs that hit a UE and the per-rank CE
// means. This is the paper's ten-run averaging protocol that smooths VRT
// noise. Under v1 each run is the plan kernel of Run; under v2 the call is
// a batch of one (AverageRunsBatch). Either way the error log is never
// built: the counts come from the same SECDED verdicts Run logs.
func (d *Device) AverageRuns(p RunParams, n int, rng *xrand.Rand) (BatchResult, error) {
	if n <= 0 {
		return BatchResult{}, fmt.Errorf("dram: AverageRuns n = %d", n)
	}
	p.RNG = rng
	if err := p.Validate(); err != nil {
		return BatchResult{}, err
	}
	if p.Version.Normalize() == DeterminismV2 {
		out, err := d.AverageRunsBatch(p, n, []BatchItem{{Apply: applyNothing, RNG: rng}})
		if err != nil {
			return BatchResult{}, err
		}
		return out[0], nil
	}
	return averageRuns(n, rng, make([]int, d.geom.Ranks), func(r *xrand.Rand) *evalPlan {
		p.RNG = r
		evalMet.singleRuns.Add(1)
		return d.accumulateV1(p)
	}), nil
}
