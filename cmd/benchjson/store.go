package main

// The store benchmark (-store): append latency and write amplification of
// the virus database at growing sizes. The seglog store appends one CRC'd
// frame and fsyncs it, so append cost should stay flat as the database
// grows. The snapshot records p50/p99 append latency and bytes written per
// append at each preloaded size — the gauge is the p99 at 100k records
// staying within 2x of its 10k value.

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"time"

	"dstress/internal/virusdb"
)

// StorePoint is the measurement at one preloaded database size.
type StorePoint struct {
	Records int `json:"records"` // preloaded database size
	Appends int `json:"appends"` // timed single-record appends

	SeglogP50Ms          float64 `json:"seglog_p50_ms"`
	SeglogP99Ms          float64 `json:"seglog_p99_ms"`
	SeglogBytesPerAppend float64 `json:"seglog_bytes_per_append"`
}

// StoreBench is the snapshot's "store" section.
type StoreBench struct {
	Points []StorePoint `json:"points"`
}

// storeRecord builds a realistic virus record: a 128-bit chromosome plus
// operating conditions, the shape campaign appends actually have.
func storeRecord(i int) virusdb.Record {
	bits := make([]byte, 128)
	for b := range bits {
		bits[b] = '0' + byte((i>>(b%16))&1)
	}
	return virusdb.Record{
		Experiment: fmt.Sprintf("bench/exp%d", i%4),
		Bits:       string(bits),
		Fitness:    float64(i % 1000),
		MeanCE:     float64(i % 100),
		Generation: i % 64,
		TempC:      55, TREFP: 2.283, VDD: 1.428,
	}
}

// runStoreBench measures the store at each size and derives the growth key
// merged into Snapshot.Derived.
func runStoreBench(sizes []int, appends int) (*StoreBench, map[string]float64, error) {
	sb := &StoreBench{}
	for _, n := range sizes {
		pt, err := measureStorePoint(n, appends)
		if err != nil {
			return nil, nil, err
		}
		sb.Points = append(sb.Points, pt)
		fmt.Fprintf(os.Stderr,
			"benchjson: store @%6d records: seglog p99 %8.3fms\n",
			n, pt.SeglogP99Ms)
	}
	derived := map[string]float64{}
	first, last := sb.Points[0], sb.Points[len(sb.Points)-1]
	if first.SeglogP99Ms > 0 {
		derived["store_seglog_p99_growth"] = last.SeglogP99Ms / first.SeglogP99Ms
	}
	return sb, derived, nil
}

func measureStorePoint(preload, appends int) (StorePoint, error) {
	pt := StorePoint{Records: preload, Appends: appends}
	dir, err := os.MkdirTemp("", "benchstore-*")
	if err != nil {
		return pt, err
	}
	defer os.RemoveAll(dir)

	// Through the real virusdb API. The preload uses batched Append calls
	// (one fsync per batch); the timed loop appends one record per call, the
	// campaign pattern.
	dbPath := filepath.Join(dir, "viruses.json")
	db, err := virusdb.Open(dbPath)
	if err != nil {
		return pt, err
	}
	defer db.Close()
	batch := make([]virusdb.Record, 0, 1000)
	for i := 0; i < preload; i++ {
		batch = append(batch, storeRecord(i))
		if len(batch) == cap(batch) || i == preload-1 {
			if err := db.Append(batch...); err != nil {
				return pt, err
			}
			batch = batch[:0]
		}
	}
	before := dirSize(dbPath)
	var lat []float64
	for i := 0; i < appends; i++ {
		r := storeRecord(preload + i)
		t0 := time.Now()
		if err := db.Append(r); err != nil {
			return pt, err
		}
		lat = append(lat, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	pt.SeglogP50Ms, pt.SeglogP99Ms = percentiles(lat)
	// The store is append-only, so on-disk growth is exactly what the
	// appends wrote (manifest rewrites on rotation are counted too).
	pt.SeglogBytesPerAppend = float64(dirSize(dbPath)-before) / float64(appends)
	return pt, nil
}

func percentiles(lat []float64) (p50, p99 float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), lat...)
	sort.Float64s(s)
	idx := func(p float64) int {
		i := int(p*float64(len(s))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(s) {
			i = len(s) - 1
		}
		return i
	}
	return s[idx(0.50)], s[idx(0.99)]
}

func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			total += fi.Size()
		}
		return nil
	})
	return total
}
