// Package virusdb persists every evaluated virus — its chromosome, the
// operating conditions and the measured error counts — as the paper's
// evaluation phase records each virus in a database. The record of an
// interrupted search seeds a new GA run (the framework's resume mechanism).
//
// Storage is a seglog store (see internal/seglog): one CRC-32C-framed append
// per record, so insert cost is independent of database size. Earlier
// versions kept a single JSON array and re-marshalled and re-fsynced all of
// it on every insert — O(N²) cumulative write cost over a campaign. Such a
// single JSON-array file found at the database path is refused on open and
// left untouched.
package virusdb

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"dstress/internal/seglog"
)

// Record is one evaluated virus.
type Record struct {
	// Experiment identifies the search this virus belongs to, e.g.
	// "data64/max-ce/55C".
	Experiment string `json:"experiment"`

	// Chromosome encoding: exactly one of Bits (as a "0101..." string) or
	// Ints is set.
	Bits string `json:"bits,omitempty"`
	Ints []int  `json:"ints,omitempty"`

	Fitness    float64 `json:"fitness"`
	MeanCE     float64 `json:"mean_ce"`
	UEFrac     float64 `json:"ue_frac"`
	Generation int     `json:"generation"`

	TempC float64 `json:"temp_c"`
	TREFP float64 `json:"trefp"`
	VDD   float64 `json:"vdd"`
}

// Validate reports whether the record is storable.
func (r Record) Validate() error {
	if r.Experiment == "" {
		return fmt.Errorf("virusdb: empty experiment")
	}
	if r.Bits == "" && r.Ints == nil {
		return fmt.Errorf("virusdb: record has no chromosome")
	}
	if r.Bits != "" && r.Ints != nil {
		return fmt.Errorf("virusdb: record has two chromosomes")
	}
	// A non-nil but empty Ints slice is not a chromosome either: such a
	// record could be stored but can never seed a resumed search.
	if r.Bits == "" && len(r.Ints) == 0 {
		return fmt.Errorf("virusdb: empty chromosome")
	}
	for _, c := range r.Bits {
		if c != '0' && c != '1' {
			return fmt.Errorf("virusdb: bad bit %q", c)
		}
	}
	return nil
}

// DB is a seglog-backed virus database. It is safe for concurrent use:
// campaign jobs evaluating in parallel share one database, and every append
// is fsynced before it returns, so a crash never loses an acknowledged
// record and never poisons the resume mechanism with a half-written one.
type DB struct {
	path string

	mu      sync.Mutex
	records []Record
	log     *seglog.Store
}

// storeOptions is the append discipline both open paths share: full
// durability (every Append call fsyncs once) with default segment rotation.
var storeOptions = seglog.Options{SyncEvery: 1}

// Open loads the database at path, creating an empty one if nothing exists
// there. A damaged store is an error, and OpenSalvage recovers the readable
// prefix instead. (A torn tail on the store's own active segment is not
// damage: it is the unacknowledged in-flight record of a crashed writer,
// and is truncated silently.) A regular file at path — the pre-seglog
// single-file format — is refused by both.
func Open(path string) (*DB, error) {
	db, _, err := open(path, false)
	return db, err
}

// OpenSalvage is Open for a possibly damaged database: it keeps every intact
// record up to the damage and drops the rest, returning the salvaged
// database and how many records were dropped (0 for an intact one).
func OpenSalvage(path string) (*DB, int, error) {
	return open(path, true)
}

func open(path string, salvage bool) (*DB, int, error) {
	if path == "" {
		return nil, 0, fmt.Errorf("virusdb: empty path")
	}
	opts := storeOptions
	opts.Salvage = salvage
	st, res, err := seglog.Open(path, opts)
	if err != nil {
		return nil, 0, fmt.Errorf("virusdb: %w", err)
	}
	db := &DB{path: path, log: st, records: make([]Record, 0, len(res.Payloads))}
	dropped := res.Stats.DroppedFrames
	for _, p := range res.Payloads {
		var r Record
		if err := json.Unmarshal(p, &r); err != nil {
			if !salvage {
				st.Close()
				return nil, 0, fmt.Errorf("virusdb: corrupt record in %s: %w", path, err)
			}
			dropped++
			continue
		}
		db.records = append(db.records, r)
	}
	return db, dropped, nil
}

// Path returns the database location.
func (db *DB) Path() string { return db.path }

// Len returns the number of stored records.
func (db *DB) Len() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.records)
}

// Append stores records durably: each is framed, CRC'd and appended to the
// store's active segment, with one fsync covering the whole call — O(1) in
// the size of the database.
func (db *DB) Append(recs ...Record) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, 0, len(recs))
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
		p, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("virusdb: %w", err)
		}
		payloads = append(payloads, p)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// Disk first, then memory: a failed append must not leave records that
	// exist only until the process dies.
	if err := db.log.Append(payloads...); err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	db.records = append(db.records, recs...)
	return nil
}

// Compact rewrites the store into a single fresh segment — reclaiming the
// space of salvage-dropped frames and collapsing accumulated segments — with
// an atomic manifest swap, so a crash leaves either the old store or the new
// one, never a mix.
func (db *DB) Compact() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	payloads := make([][]byte, 0, len(db.records))
	for _, r := range db.records {
		p, err := json.Marshal(r)
		if err != nil {
			return fmt.Errorf("virusdb: %w", err)
		}
		payloads = append(payloads, p)
	}
	if err := db.log.Compact(payloads); err != nil {
		return fmt.Errorf("virusdb: %w", err)
	}
	return nil
}

// Close syncs and releases the underlying store handle. The DB must not be
// used afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.log.Close()
}

// Records returns the stored records for one experiment, strongest first.
func (db *DB) Records(experiment string) []Record {
	db.mu.Lock()
	defer db.mu.Unlock()
	var out []Record
	for _, r := range db.records {
		if r.Experiment == experiment {
			out = append(out, r)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].Fitness > out[j].Fitness
	})
	return out
}

// Experiments lists the distinct experiment names, sorted.
func (db *DB) Experiments() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	set := map[string]bool{}
	for _, r := range db.records {
		set[r.Experiment] = true
	}
	names := make([]string, 0, len(set))
	for n := range set {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Best returns the strongest record of an experiment, if any.
func (db *DB) Best(experiment string) (Record, bool) {
	recs := db.Records(experiment)
	if len(recs) == 0 {
		return Record{}, false
	}
	return recs[0], true
}

// TopN returns up to n strongest records of an experiment — the seed
// population for resuming an interrupted search.
func (db *DB) TopN(experiment string, n int) []Record {
	recs := db.Records(experiment)
	if len(recs) > n {
		recs = recs[:n]
	}
	return recs
}
