// Package checkpoint persists resumable search state with crash-safe
// discipline. The paper's campaigns run for many hours per operating point,
// so an in-flight GA search is the most expensive artifact the system
// holds; this package is what lets a killed process continue one bit-for-bit
// instead of restarting it.
//
// A checkpoint file is line-oriented text:
//
//	dstress-checkpoint v1
//	rec <seq> <crc32-hex> <compact-json-payload>
//	rec <seq> <crc32-hex> <compact-json-payload>
//
// The newest record is last. Every Save rewrites the whole file atomically —
// temp file, fsync, rename — the same discipline virusdb uses, keeping the
// last few records so that even a torn write published by a misbehaving
// filesystem leaves an older intact snapshot behind. Load verifies the
// versioned header and each record's checksum, salvages the newest intact
// record when the tail is corrupt, and fails loudly (never silently wrong)
// when no record survives.
package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"dstress/internal/seglog"
)

// Header constants. The version is bumped on any incompatible format change;
// Load refuses versions it does not understand rather than guessing.
const (
	Magic   = "dstress-checkpoint"
	Version = 1
)

// DefaultKeep is how many trailing records a file retains unless Open is
// told otherwise: the newest snapshot plus one predecessor to salvage.
const DefaultKeep = 2

// Sentinel errors, matchable with errors.Is.
var (
	// ErrBadHeader marks a file that is not a checkpoint file at all.
	ErrBadHeader = errors.New("checkpoint: bad header")
	// ErrVersion marks a checkpoint written by an incompatible format
	// version.
	ErrVersion = errors.New("checkpoint: unsupported version")
	// ErrNoRecord marks a checkpoint file with no intact record — header
	// present, every record damaged or missing.
	ErrNoRecord = errors.New("checkpoint: no intact record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type record struct {
	seq     uint64
	payload []byte // compact JSON
}

// File is a writer handle over one checkpoint file. It is safe for
// concurrent use.
type File struct {
	path string
	keep int

	mu   sync.Mutex
	recs []record
	seq  uint64
}

// Open binds a writer to path, creating the file lazily on first Save. An
// existing file's intact records are adopted (so sequence numbers keep
// rising across process restarts); a damaged tail is dropped, and a file
// with a foreign header or version is an error — overwriting someone else's
// data is not salvage. keep <= 0 means DefaultKeep.
func Open(path string, keep int) (*File, error) {
	if path == "" {
		return nil, errors.New("checkpoint: empty path")
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	f := &File{path: path, keep: keep}
	recs, _, err := readRecords(path)
	switch {
	case err == nil:
		f.recs = trimRecords(recs, keep)
		f.seq = f.recs[len(f.recs)-1].seq
	case errors.Is(err, os.ErrNotExist), errors.Is(err, ErrNoRecord):
		// Fresh or empty-after-salvage file: start from scratch.
	default:
		return nil, err
	}
	return f, nil
}

// Save marshals payload, appends it as the newest record and rewrites the
// file atomically.
func (f *File) Save(payload any) error {
	data, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.recs = trimRecords(append(f.recs, record{seq: f.seq, payload: data}), f.keep)

	var sb strings.Builder
	fmt.Fprintf(&sb, "%s v%d\n", Magic, Version)
	for _, r := range f.recs {
		fmt.Fprintf(&sb, "rec %d %08x %s\n", r.seq,
			crc32.Checksum(r.payload, crcTable), r.payload)
	}
	return writeAtomic(f.path, []byte(sb.String()))
}

// Path returns the file's location.
func (f *File) Path() string { return f.path }

// Remove deletes the checkpoint file — called when the search it protects
// has finished and durability is now the result store's job. The handle
// stays usable; a later Save recreates the file.
func (f *File) Remove() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recs = nil
	if err := os.Remove(f.path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

func trimRecords(recs []record, keep int) []record {
	if len(recs) <= keep {
		return recs
	}
	// Fresh backing array: the writer holds this slice for the process
	// lifetime, and a sub-slice would pin every superseded payload.
	return append([]record(nil), recs[len(recs)-keep:]...)
}

// LoadResult reports what Load found.
type LoadResult struct {
	// Payload is the newest intact record.
	Payload json.RawMessage
	// Seq is its sequence number.
	Seq uint64
	// Salvaged counts damaged or trailing-garbage lines that were dropped
	// to reach the payload; non-zero means the file had a corrupt tail.
	Salvaged int
}

// Load reads the newest intact record from path. It returns ErrBadHeader /
// ErrVersion for files this package must not reinterpret, ErrNoRecord when
// the header parses but no record survives its checksum, and the underlying
// fs error (os.ErrNotExist included) when the file cannot be read.
func Load(path string) (LoadResult, error) {
	recs, salvaged, err := readRecords(path)
	if err != nil {
		return LoadResult{}, err
	}
	last := recs[len(recs)-1]
	return LoadResult{Payload: last.payload, Seq: last.seq, Salvaged: salvaged}, nil
}

// LoadInto is Load plus unmarshalling of the payload into v.
func LoadInto(path string, v any) (LoadResult, error) {
	res, err := Load(path)
	if err != nil {
		return res, err
	}
	if err := json.Unmarshal(res.Payload, v); err != nil {
		return res, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return res, nil
}

// readRecords parses the file, returning every intact record in order plus
// the number of damaged lines dropped. Scanning stops at the first damaged
// line: anything after it is unordered debris from a torn write, and
// trusting a "valid-looking" record beyond the damage could resurrect state
// newer than what the writer actually committed.
func readRecords(path string) ([]record, int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %w", err)
	}
	lines := strings.Split(string(data), "\n")
	if len(lines) > 0 && lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1] // trailing newline of a complete file
	}
	if len(lines) == 0 {
		return nil, 0, fmt.Errorf("checkpoint: %s: empty file: %w", path, ErrNoRecord)
	}
	if err := parseHeader(lines[0]); err != nil {
		return nil, 0, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	var recs []record
	salvaged := 0
	for i, line := range lines[1:] {
		r, ok := parseRecord(line)
		if !ok {
			salvaged = len(lines[1:]) - i
			break
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, salvaged, fmt.Errorf("checkpoint: %s: %w", path, ErrNoRecord)
	}
	return recs, salvaged, nil
}

func parseHeader(line string) error {
	magic, ver, ok := strings.Cut(strings.TrimSpace(line), " ")
	if !ok || magic != Magic || !strings.HasPrefix(ver, "v") {
		return ErrBadHeader
	}
	n, err := strconv.Atoi(ver[1:])
	if err != nil {
		return ErrBadHeader
	}
	if n != Version {
		return fmt.Errorf("%w: v%d (this build reads v%d)", ErrVersion, n, Version)
	}
	return nil
}

// parseRecord validates one "rec <seq> <crc> <json>" line. Any deviation —
// bad field count, checksum mismatch, non-JSON payload — marks the line
// damaged.
func parseRecord(line string) (record, bool) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) != 4 || fields[0] != "rec" {
		return record{}, false
	}
	seq, err := strconv.ParseUint(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	want, err := strconv.ParseUint(fields[2], 16, 32)
	if err != nil {
		return record{}, false
	}
	payload := []byte(fields[3])
	if crc32.Checksum(payload, crcTable) != uint32(want) {
		return record{}, false
	}
	if !json.Valid(payload) {
		return record{}, false
	}
	return record{seq: seq, payload: payload}, true
}

// writeAtomic is the virusdb write discipline: temp file in the same
// directory, fsync, rename over the target.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".checkpoint-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// Flush to stable storage before the rename publishes the file: the
	// rename can survive a crash the data blocks did not.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: %w", err)
	}
	// The rename itself is only durable once the directory entry is: on
	// some filesystems a crash right after the rename can lose the file
	// entirely without this.
	return seglog.FsyncDir(dir)
}
