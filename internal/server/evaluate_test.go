package server_test

import (
	"reflect"
	"testing"

	"dstress/internal/core"
	"dstress/internal/dram"
	"dstress/internal/ga"
	"dstress/internal/server"
	"dstress/internal/xrand"
)

// evaluateOracle is Evaluate as a per-run loop: one full Run per split,
// building each run's error log, summing counts and per-rank CEs into the
// result map and dividing at the end. Evaluate averages through
// dram.AverageRuns, which never builds the log, so the oracle checks both
// the counts-only tail and the BatchResult → EvalResult conversion.
func evaluateOracle(s *server.Server, mcu, runs int, rng *xrand.Rand) (server.EvalResult, error) {
	ctl := s.MCU(mcu)
	tempByRank := map[int]float64{}
	for rank := 0; rank < ctl.Device().Geometry().Ranks; rank++ {
		t, err := s.Testbed().Temp(mcu, rank)
		if err != nil {
			return server.EvalResult{}, err
		}
		tempByRank[rank] = t
	}
	p := dram.RunParams{
		TREFP:         ctl.TREFP(),
		TempC:         s.DIMMTemp(mcu),
		TempByRank:    tempByRank,
		VDD:           ctl.VDD(),
		ActsPerWindow: ctl.ActsPerWindow(),
		Version:       s.Determinism(),
	}
	res := server.EvalResult{CEByRank: make(map[int]float64)}
	ues := 0
	for i := 0; i < runs; i++ {
		p.RNG = rng.Split()
		r, err := ctl.Device().Run(p)
		if err != nil {
			return server.EvalResult{}, err
		}
		res.MeanCE += float64(r.CE)
		res.MeanSDC += float64(r.SDC)
		if r.HasUE() {
			ues++
		}
		for rank, n := range r.CEByRank {
			res.CEByRank[rank] += float64(n)
		}
	}
	n := float64(runs)
	res.MeanCE /= n
	res.MeanSDC /= n
	res.UEFrac = float64(ues) / n
	for rank := range res.CEByRank {
		res.CEByRank[rank] /= n
	}
	return res, nil
}

// TestEvaluateMatchesPerRunOracle: under both determinism contracts,
// Evaluate returns exactly the EvalResult of the per-run oracle — means,
// UE fraction and per-rank CE means — with the two ranks of the DIMM held
// at different temperatures and the activation rates driven through the
// memory controller by an access virus.
func TestEvaluateMatchesPerRunOracle(t *testing.T) {
	for _, det := range []dram.DeterminismVersion{dram.DeterminismV1, dram.DeterminismV2} {
		t.Run(det.String(), func(t *testing.T) {
			srv := server.MustNew(server.DefaultConfig(16, 2020))
			if err := srv.SetDeterminism(det); err != nil {
				t.Fatal(err)
			}
			f, err := core.New(srv, xrand.New(1))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Apply(core.Relaxed(60)); err != nil {
				t.Fatal(err)
			}
			// Heat rank 1 past rank 0 so the per-rank temperatures differ.
			if err := srv.Testbed().SetTarget(f.MCU, 1, 66); err != nil {
				t.Fatal(err)
			}
			if !srv.Testbed().Settle(7200, 0.5) {
				t.Fatal("testbed did not settle")
			}
			spec := core.NewAccessRowsSpec(0x3333333333333333)
			if err := spec.Prepare(f); err != nil {
				t.Fatal(err)
			}
			genomes := xrand.New(5)
			ranks := map[int]bool{}
			for i := 0; i < 4; i++ {
				if err := spec.Deploy(f, ga.RandomBitGenome(64, genomes)); err != nil {
					t.Fatal(err)
				}
				if len(srv.MCU(f.MCU).ActsPerWindow()) == 0 {
					t.Fatal("the access virus drove no activations")
				}
				seed := uint64(100 + i)
				want, err := evaluateOracle(srv, f.MCU, 8, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := srv.Evaluate(f.MCU, 8, xrand.New(seed))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("genome %d: Evaluate %+v, per-run oracle %+v", i, got, want)
				}
				for rank := range got.CEByRank {
					ranks[rank] = true
				}
			}
			if len(ranks) < 2 {
				t.Fatalf("CEs fell on ranks %v only; the per-rank check is vacuous", ranks)
			}
		})
	}
}
