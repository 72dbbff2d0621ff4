package dram

import (
	"math"
	"sort"

	"dstress/internal/ecc"
)

// The plan-free v1 evaluation: the oracle the compiled plan kernel (Run) is
// verified against. It lives with the tests because only the differential
// suite (plan_test.go), the v2 reference (run_v2_test.go) and the
// reference micro-benchmarks (bench_test.go) call it.

type flipKey struct {
	key RowKey
	col int
}

// runReference is the direct (plan-free) evaluation the fast path is
// verified against: it re-derives row order, physical positions, charge
// states and couplings on every run. It must stay semantically frozen — the
// differential suite in plan_test.go runs it against Run across seeds,
// temperatures, scrambled/remapped rows, hammer patterns and per-row TREFP
// overrides and requires bit-identical results.
func (d *Device) runReference(p RunParams) (RunResult, error) {
	if err := p.Validate(); err != nil {
		return RunResult{}, err
	}
	phys := d.cfg.Physics
	envByRank := make([]float64, d.geom.Ranks)
	for rank := range envByRank {
		temp := p.TempC
		if t, ok := p.TempByRank[rank]; ok {
			temp = t
		}
		envByRank[rank] = phys.tempFactor(temp) * phys.vddFactor(p.VDD)
	}

	flips := make(map[flipKey][]int)

	// Iterate written rows in a fixed order: evaluation consumes the run's
	// RNG stream, so the order must not depend on map iteration.
	keys := make([]RowKey, 0, len(d.rows))
	for key := range d.rows {
		keys = append(keys, key)
	}
	sortRowKeys(keys)

	for _, key := range keys {
		hammer := d.hammerFor(key, p.ActsPerWindow)
		envFactor := envByRank[key.Rank]
		rp := p
		if t, ok := p.TREFPByRow[key]; ok {
			rp.TREFP = t
		}

		for _, idx := range d.weakByRow[key] {
			w := &d.weak[idx]
			if d.weakCellFails(w, key, envFactor, hammer, rp) {
				fk := flipKey{key, w.WordCol}
				flips[fk] = append(flips[fk], w.Bit)
			}
		}

		for _, idx := range d.clustersByRow[key] {
			c := &d.clusters[idx]
			d.clusterFails(c, key, envFactor, hammer, rp, flips)
		}
	}

	// Log errors in (rank, bank, row, word col) order, not map order: the
	// error log of two identical runs must be identical.
	fks := make([]flipKey, 0, len(flips))
	for fk := range flips {
		fks = append(fks, fk)
	}
	sort.Slice(fks, func(i, j int) bool {
		a, b := fks[i], fks[j]
		if a.key != b.key {
			if a.key.Rank != b.key.Rank {
				return a.key.Rank < b.key.Rank
			}
			if a.key.Bank != b.key.Bank {
				return a.key.Bank < b.key.Bank
			}
			return a.key.Row < b.key.Row
		}
		return a.col < b.col
	})

	res := RunResult{CEByRank: make(map[int]int)}
	for _, fk := range fks {
		bits := flips[fk]
		img := d.rows[fk.key]
		original := img[fk.col]
		word := ecc.Encode(original)
		for _, b := range bits {
			word = word.FlipBit(b)
		}
		dec := ecc.Decode(word)
		we := WordError{Key: fk.key, WordCol: fk.col, Flips: bits,
			Status: dec.Status}
		switch {
		case dec.Status == ecc.Uncorrectable:
			res.UE++
		case dec.Data != original:
			we.SDC = true
			res.SDC++
		case dec.Status == ecc.Corrected:
			res.CE++
			res.CEByRank[int(fk.key.Rank)]++
		}
		res.Errors = append(res.Errors, we)
	}
	return res, nil
}

func (d *Device) weakCellFails(w *WeakCell, key RowKey, envFactor,
	hammer float64, p RunParams) bool {
	phys := d.cfg.Physics

	stored, ok := d.storedBit(key, w.WordCol, w.Bit)
	if !ok {
		return false
	}
	pos := d.physBit(key, w.WordCol, w.Bit)
	charged := stored == (d.CellTypeAt(key, pos) == TrueCell)

	tau := w.Tau0 * envFactor
	if w.VRT && p.RNG.Bool(0.5) {
		tau *= w.VRTMult
	}
	lat, vert := d.neighbourCoupling(key, pos)
	tau /= 1 + phys.CouplingAlpha*float64(lat) +
		phys.VCouplingDelta*float64(vert)
	tau /= 1 + phys.HammerBeta*hammer

	if charged {
		return tau < p.TREFP
	}
	return tau*phys.GainFactor < p.TREFP
}

// clusterFails evaluates a multi-bit defect cluster and appends any failing
// bits to flips. All cluster cells are anti-cells sharing one retention
// time. Two couplings lower the shared retention: the intra-cluster
// coupling (per charged sibling) and the external coupling from charged
// lateral neighbours of the cluster cells. Reaching the failure point below
// the standalone onset temperature (~66 °C at the relaxed refresh period)
// requires both the whole cluster charged (its data bits all '0') and the
// neighbouring bits driven to their charged values — a combination the
// paper's GA discovers at 62 °C but no simple micro-benchmark fill produces.
func (d *Device) clusterFails(c *Cluster, key RowKey, envFactor,
	hammer float64, p RunParams, flips map[flipKey][]int) {
	phys := d.cfg.Physics
	img := d.rows[key]
	data := img[c.WordCol]

	chargedN := 0
	for _, b := range c.Bits {
		if data&(1<<uint(b)) == 0 { // anti-cell storing '0' is charged
			chargedN++
		}
	}
	if chargedN == 0 {
		return
	}
	// External coupling comes from the cells flanking the cluster (word
	// bits 16, 19, 20, 23). Each flanking cell is charged when the word
	// holds the cluster's own signature value at its position.
	ext := 0
	for i, nb := range clusterNeighbourBits {
		bit := data&(1<<uint(nb)) != 0
		if bit == c.Neighbours[i] {
			ext++
		}
	}
	jitter := math.Exp(p.RNG.Norm(0, phys.ClusterJitter))
	tau := c.Tau0 * envFactor * jitter
	tau /= 1 + phys.ClusterAlpha*float64(chargedN-1) +
		phys.ClusterExtAlpha*float64(ext)
	tau /= 1 + phys.ClusterHammerB*hammer
	partialBand := phys.ClusterPartialBand
	if partialBand < 1 {
		partialBand = 1
	}
	if tau >= p.TREFP*partialBand {
		return
	}
	fk := flipKey{key, c.WordCol}
	if tau >= p.TREFP {
		// Partial failure: only the weakest member leaks — one CE. This is
		// the stepping stone the UE search climbs.
		for _, b := range c.Bits {
			if data&(1<<uint(b)) == 0 {
				flips[fk] = append(flips[fk], b)
				return
			}
		}
		return
	}
	for _, b := range c.Bits {
		if data&(1<<uint(b)) == 0 {
			flips[fk] = append(flips[fk], b)
		}
	}
}
