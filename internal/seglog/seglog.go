// Package seglog is a segmented append-only record store with the
// repository's checkpoint discipline applied per record instead of per file.
// virusdb and the scheduler journal were the last whole-file-rewrite
// components: every insert re-marshalled and re-fsynced the entire document,
// so cumulative write cost grew O(N²) over a long campaign. This store makes
// an append O(1) — one framed write to the active segment plus an fsync —
// while keeping the same crash-safety contract: every byte that mattered was
// fsynced before it was acknowledged, and a torn tail never poisons the
// records before it.
//
// On disk a store is a directory:
//
//	MANIFEST            crc'd, atomically-replaced list of live segments
//	seg-000000001.log   versioned header line + length-prefixed frames
//	seg-000000002.log   ...
//
// Each segment starts with the text line "dstress-seglog v1\n" followed by
// binary frames: a little-endian uint32 payload length, a little-endian
// uint32 CRC-32C of the payload, then the payload bytes. The manifest is the
// authority on which segments exist and in what order; segment files it does
// not list are debris from a crashed rotation or compaction and are deleted
// on open. The manifest itself is one CRC'd line rewritten atomically (temp
// file, fsync, rename, directory fsync) — it is tiny and changes only on
// rotation and compaction, never on append.
//
// Durability contract: Append returns after its frames are written and, when
// the sync policy fires (always, with SyncEvery <= 1), fsynced. A record is
// guaranteed to survive a crash only once a sync covering it has returned;
// with batching (SyncEvery > 1) the unsynced suffix is explicitly allowed to
// vanish, and Open truncates such a torn tail off the final segment without
// treating it as damage. A torn tail is bad bytes with nothing readable
// after them. Any other damage is real corruption: a bad frame in a
// non-final segment (rotation fully syncs a segment before retiring it), or
// a bad frame in the final segment followed by an intact one (an
// acknowledged record sits behind the damage). Open then fails loudly
// unless Salvage is set, in which case replay stops at the damage (trusting
// frames beyond it could resurrect state the writer never acknowledged),
// the dropped remainder is counted, and the surviving records are compacted
// into a fresh segment so the store is clean again.
package seglog

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// Format constants. Versions are bumped on any incompatible change; Open
// refuses versions it does not understand rather than guessing.
const (
	SegMagic      = "dstress-seglog"
	ManifestMagic = "dstress-seglog-manifest"
	Version       = 1

	manifestName = "MANIFEST"
	segPrefix    = "seg-"
	segSuffix    = ".log"

	// frameHeaderLen is the fixed per-frame overhead: uint32 length plus
	// uint32 CRC-32C, both little-endian.
	frameHeaderLen = 8

	// maxFrame bounds a single payload; a larger length field is corruption,
	// not a big record.
	maxFrame = 1 << 30
)

// Defaults applied by Open when the corresponding Options field is zero.
const (
	DefaultRotateBytes = 4 << 20
)

// Sentinel errors, matchable with errors.Is.
var (
	// ErrBadSegment marks a segment file with a foreign or damaged header.
	ErrBadSegment = errors.New("seglog: bad segment header")
	// ErrBadManifest marks an unreadable or corrupt manifest.
	ErrBadManifest = errors.New("seglog: bad manifest")
	// ErrVersion marks a store written by an incompatible format version.
	ErrVersion = errors.New("seglog: unsupported version")
	// ErrCorrupt marks damage that is not a torn tail — data that was
	// acknowledged as durable and is now unreadable.
	ErrCorrupt = errors.New("seglog: corrupt store")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a store.
type Options struct {
	// SyncEvery is how many appended frames may accumulate before an fsync.
	// <= 1 means every Append call syncs before returning (one fsync per
	// call, covering every frame in the call's batch) — full durability,
	// the default. Larger values trade the tail for throughput.
	SyncEvery int

	// RotateBytes rotates the active segment once it grows past this size
	// (checked after a sync). 0 means DefaultRotateBytes.
	RotateBytes int64

	// Salvage tolerates corruption that is not a torn tail: replay stops at
	// the damage and Stats.DroppedFrames counts what was lost,
	// instead of Open failing with ErrCorrupt. When that happens the store
	// is rebuilt before Open returns — the salvaged payloads are compacted
	// into one fresh segment and the damaged segments deleted — so appends
	// never land in a segment replay would skip. A torn tail on the final
	// segment is truncated in both modes — it is the expected artifact of a
	// crash, not damage.
	Salvage bool
}

// Stats reports what Open found.
type Stats struct {
	// Segments is the number of live segments listed in the manifest.
	Segments int
	// Frames is the number of replayable records.
	Frames int
	// DroppedFrames counts records lost to corruption (Salvage mode only):
	// the unparseable region itself counts as one, plus every intact frame
	// after it in the damaged segment and every frame in later segments.
	DroppedFrames int
	// TornBytes is the length of the unsynced tail truncated off the final
	// segment — normal after a crash, zero after a clean shutdown.
	TornBytes int64
}

// Store is an open segmented log. It is safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	segs       []string // manifest order; last is active
	next       uint64   // next segment number
	active     *os.File
	activeSize int64
	pending    int // frames written since the last fsync
	appended   int // frames appended over this handle's lifetime
	closed     bool
	// poisoned is set when a failed write left bytes in the active segment
	// that could not be cut back off; further appends would land beyond the
	// junk and be silently discarded by replay, so they are refused instead.
	poisoned bool
}

// OpenResult carries the replayable payloads and open-time stats. Payloads
// share backing arrays with per-segment read buffers; callers decode them
// into their own structures and drop the slice.
type OpenResult struct {
	Payloads [][]byte
	Stats    Stats
}

// Open opens (or creates) the store directory at dir and replays it.
func Open(dir string, opts Options) (*Store, *OpenResult, error) {
	if dir == "" {
		return nil, nil, errors.New("seglog: empty path")
	}
	if opts.RotateBytes <= 0 {
		opts.RotateBytes = DefaultRotateBytes
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		// Builds before the segmented store kept virusdb and the job journal
		// in one file at this path. That format is refused, never converted:
		// the file is left exactly as found.
		return nil, nil, fmt.Errorf("seglog: %s is a regular file, not a store "+
			"directory (the pre-seglog single-file format is no longer read)", dir)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	st := &Store{dir: dir, opts: opts}
	res := &OpenResult{}
	segs, next, err := readManifest(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		st.segs, st.next = segs, next
	case errors.Is(err, os.ErrNotExist):
		if err := st.initFresh(); err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, err
	}
	st.removeDebris()
	stopped, err := st.replay(res)
	if err != nil {
		return nil, nil, err
	}
	if stopped {
		// Salvage stopped replay inside a damaged segment. Every surviving
		// segment either holds the damage or sits beyond it where replay
		// will never look again, so appending into any of them would write
		// records that vanish on the next open. Rewrite the salvaged
		// payloads into one fresh segment — the atomic manifest swap retires
		// the damage and leaves the writer positioned in a clean segment.
		if err := st.compactLocked(res.Payloads); err != nil {
			return nil, nil, err
		}
		res.Stats.Segments = len(st.segs)
		return st, res, nil
	}
	res.Stats.Segments = len(st.segs)
	// Position the writer at the end of the valid data in the active
	// segment, physically truncating any torn tail so new frames append
	// after the last acknowledged one. O_APPEND keeps every write at the
	// (possibly truncated) end of file without offset bookkeeping.
	activePath := filepath.Join(dir, st.segs[len(st.segs)-1])
	f, err := os.OpenFile(activePath, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("seglog: %w", err)
	}
	if res.Stats.TornBytes > 0 {
		if err := f.Truncate(st.activeSize); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("seglog: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("seglog: %w", err)
		}
	}
	st.active = f
	return st, res, nil
}

// initFresh creates the first segment and manifest of a new store. A
// directory holding segment frames but no manifest is not fresh — it is a
// store whose manifest was lost, and overwriting it would destroy data.
func (s *Store) initFresh() error {
	names, _ := filepath.Glob(filepath.Join(s.dir, segPrefix+"*"+segSuffix))
	for _, n := range names {
		if segmentHasFrames(n) {
			return fmt.Errorf("%w: %s: segments without a manifest", ErrBadManifest, s.dir)
		}
	}
	// Any frameless leftovers are debris from a crashed init; recreate.
	for _, n := range names {
		os.Remove(n)
	}
	s.next = 1
	name, err := s.createSegment()
	if err != nil {
		return err
	}
	s.segs = []string{name}
	if err := s.writeManifest(); err != nil {
		return err
	}
	return FsyncDir(s.dir)
}

// createSegment writes a new empty segment (header only), fsyncs it and the
// directory, and bumps the segment counter. The manifest is the caller's job.
func (s *Store) createSegment() (string, error) {
	name := fmt.Sprintf("%s%09d%s", segPrefix, s.next, segSuffix)
	f, err := os.OpenFile(filepath.Join(s.dir, name),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return "", fmt.Errorf("seglog: %w", err)
	}
	if _, err := fmt.Fprintf(f, "%s v%d\n", SegMagic, Version); err != nil {
		f.Close()
		return "", fmt.Errorf("seglog: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("seglog: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("seglog: %w", err)
	}
	if err := FsyncDir(s.dir); err != nil {
		return "", err
	}
	s.next++
	return name, nil
}

// removeDebris deletes segment and temp files the manifest does not list —
// leftovers of a rotation, compaction or manifest swap that crashed after
// creating files but before publishing them.
func (s *Store) removeDebris() {
	live := make(map[string]bool, len(s.segs))
	for _, n := range s.segs {
		live[n] = true
	}
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		n := e.Name()
		switch {
		case n == manifestName || live[n]:
		case strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix),
			strings.HasPrefix(n, ".manifest-"):
			os.Remove(filepath.Join(s.dir, n))
		}
	}
}

// replay parses every live segment in manifest order, filling res with the
// payloads and stats and leaving s.activeSize at the end of the valid data
// in the final segment. The stopped result is true when salvage halted at
// mid-store damage: the segments from the damaged one onward were not fully
// replayed, so the caller must not append into any of them — see Open.
func (s *Store) replay(res *OpenResult) (stopped bool, err error) {
	for i, name := range s.segs {
		final := i == len(s.segs)-1
		path := filepath.Join(s.dir, name)
		payloads, validEnd, rest, err := parseSegment(path)
		if err != nil {
			return false, err
		}
		res.Payloads = append(res.Payloads, payloads...)
		res.Stats.Frames += len(payloads)
		// A crash tears only the unsynced end of the final segment, leaving
		// nothing readable after the tear. Bad bytes anywhere else — in a
		// segment rotation synced in full before retiring it, or with an
		// intact frame after them — are damage to acknowledged data.
		beyond := framesBeyond(rest)
		if len(rest) == 0 || (final && beyond == 0) {
			if final {
				s.activeSize = validEnd
				res.Stats.TornBytes = int64(len(rest))
			}
			continue
		}
		if !s.opts.Salvage {
			return false, fmt.Errorf("%w: %s: bad frame at offset %d",
				ErrCorrupt, path, validEnd)
		}
		// The unparseable region itself, plus the frames beyond it: they
		// are out of known order; count, drop.
		res.Stats.DroppedFrames += 1 + beyond
		for _, later := range s.segs[i+1:] {
			lp, _, _, err := parseSegment(filepath.Join(s.dir, later))
			if err == nil {
				res.Stats.DroppedFrames += len(lp)
			}
		}
		return true, nil
	}
	return false, nil
}

// parseSegment reads one segment file and parses it with parseSegmentData.
func parseSegment(path string) (payloads [][]byte, validEnd int64, rest []byte, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("seglog: %w", err)
	}
	return parseSegmentData(data, path)
}

// parseSegmentData parses one segment's bytes (path names it in errors),
// returning its intact payloads, the offset where valid data ends, and any
// unparseable remainder past that offset.
func parseSegmentData(data []byte, path string) (payloads [][]byte, validEnd int64, rest []byte, err error) {
	nl := strings.IndexByte(string(data[:min(len(data), 64)]), '\n')
	if nl < 0 {
		return nil, 0, nil, fmt.Errorf("%w: %s", ErrBadSegment, path)
	}
	if err := parseSegHeader(string(data[:nl]), path); err != nil {
		return nil, 0, nil, err
	}
	off := int64(nl + 1)
	for {
		remain := data[off:]
		if len(remain) == 0 {
			return payloads, off, nil, nil
		}
		n, ok := frameAt(remain)
		if !ok {
			return payloads, off, remain, nil
		}
		payloads = append(payloads, remain[frameHeaderLen:frameHeaderLen+n])
		off += frameHeaderLen + int64(n)
	}
}

// frameAt reports whether b starts with an intact frame — a plausible
// length that fits in b and a payload matching its CRC — and returns the
// payload length.
func frameAt(b []byte) (int, bool) {
	if len(b) < frameHeaderLen {
		return 0, false
	}
	length := binary.LittleEndian.Uint32(b[0:4])
	if length == 0 || length > maxFrame ||
		uint64(len(b)) < frameHeaderLen+uint64(length) {
		return 0, false
	}
	payload := b[frameHeaderLen : frameHeaderLen+length]
	if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(b[4:8]) {
		return 0, false
	}
	return int(length), true
}

// framesBeyond counts the intact frames after the unparseable start of
// rest, resynchronising byte by byte past every bad region.
func framesBeyond(rest []byte) int {
	n := 0
	for off := 1; off+frameHeaderLen <= len(rest); {
		if l, ok := frameAt(rest[off:]); ok {
			n++
			off += frameHeaderLen + l
			continue
		}
		off++
	}
	return n
}

func parseSegHeader(line, path string) error {
	magic, ver, ok := strings.Cut(strings.TrimSpace(line), " ")
	if !ok || magic != SegMagic || !strings.HasPrefix(ver, "v") {
		return fmt.Errorf("%w: %s", ErrBadSegment, path)
	}
	var n int
	if _, err := fmt.Sscanf(ver, "v%d", &n); err != nil {
		return fmt.Errorf("%w: %s", ErrBadSegment, path)
	}
	if n != Version {
		return fmt.Errorf("%w: %s: v%d (this build reads v%d)",
			ErrVersion, path, n, Version)
	}
	return nil
}

// Append frames and writes the payloads to the active segment. It returns
// once they are durable under the sync policy: with SyncEvery <= 1 (the
// default) every call fsyncs once, covering its whole batch.
func (s *Store) Append(payloads ...[]byte) error {
	if len(payloads) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("seglog: store closed")
	}
	if s.poisoned {
		return errors.New("seglog: active segment poisoned by an earlier failed write; reopen to recover")
	}
	var buf []byte
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxFrame {
			return fmt.Errorf("seglog: bad payload length %d", len(p))
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, crcTable))
		buf = append(buf, hdr[:]...)
		buf = append(buf, p...)
	}
	if _, err := s.active.Write(buf); err != nil {
		// A partial write leaves junk after the last intact frame; if a
		// later append then succeeded, replay would stop at the junk and
		// silently discard the acknowledged frames beyond it as a torn
		// tail. Cut the file back to the frame boundary (writes append at
		// end-of-file, so the next attempt lands cleanly); if even that
		// fails, refuse further appends on this handle.
		if terr := s.active.Truncate(s.activeSize); terr != nil {
			s.poisoned = true
		}
		return fmt.Errorf("seglog: %w", err)
	}
	s.activeSize += int64(len(buf))
	s.pending += len(payloads)
	s.appended += len(payloads)
	if s.opts.SyncEvery <= 1 || s.pending >= s.opts.SyncEvery ||
		s.activeSize >= s.opts.RotateBytes {
		if err := s.syncLocked(); err != nil {
			return err
		}
	}
	if s.activeSize >= s.opts.RotateBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// Sync forces pending frames to stable storage regardless of SyncEvery.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	s.pending = 0
	return nil
}

// rotateLocked retires the active segment (already synced) and switches
// appends to a fresh one. The new segment is durable on disk before the
// manifest names it, so a crash at any point leaves either the old manifest
// (the new file is debris, deleted next open) or the new one.
func (s *Store) rotateLocked() error {
	name, err := s.createSegment()
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	s.segs = append(s.segs, name)
	if err := s.writeManifest(); err != nil {
		f.Close()
		s.segs = s.segs[:len(s.segs)-1]
		s.next--
		return err
	}
	s.active.Close()
	s.active = f
	s.activeSize = int64(len(SegMagic)) + int64(len(fmt.Sprintf(" v%d\n", Version)))
	return nil
}

// Compact rewrites the store to exactly the given payloads: they are written
// into one fresh segment, the manifest atomically swaps to it, and the old
// segments are deleted. The caller decides what is live; a crash at any
// point leaves either the complete old store or the complete new one.
func (s *Store) Compact(payloads [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("seglog: store closed")
	}
	if err := s.syncLocked(); err != nil {
		return err
	}
	return s.compactLocked(payloads)
}

// compactLocked does the compaction work with s.mu held (or, during Open,
// before the store is published). It tolerates a nil active handle — Open
// uses it to rebuild a salvaged store before any writer exists.
func (s *Store) compactLocked(payloads [][]byte) error {
	name, err := s.createSegment()
	if err != nil {
		return err
	}
	path := filepath.Join(s.dir, name)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	size := int64(len(SegMagic)) + int64(len(fmt.Sprintf(" v%d\n", Version)))
	for _, p := range payloads {
		if len(p) == 0 || len(p) > maxFrame {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("seglog: bad payload length %d", len(p))
		}
		var hdr [frameHeaderLen]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, crcTable))
		if _, err := f.Write(hdr[:]); err == nil {
			_, err = f.Write(p)
		}
		if err != nil {
			f.Close()
			os.Remove(path)
			return fmt.Errorf("seglog: %w", err)
		}
		size += frameHeaderLen + int64(len(p))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("seglog: %w", err)
	}
	old := s.segs
	s.segs = []string{name}
	if err := s.writeManifest(); err != nil {
		f.Close()
		os.Remove(path)
		s.segs = old
		return err
	}
	if s.active != nil {
		s.active.Close()
	}
	s.active = f
	s.activeSize = size
	s.pending = 0
	s.poisoned = false
	for _, n := range old {
		os.Remove(filepath.Join(s.dir, n))
	}
	return nil
}

// writeManifest publishes the current segment list atomically: temp file,
// fsync, rename over MANIFEST, directory fsync.
func (s *Store) writeManifest() error {
	body, err := json.Marshal(struct {
		Next     uint64   `json:"next"`
		Segments []string `json:"segments"`
	}{Next: s.next, Segments: s.segs})
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s v%d\n", ManifestMagic, Version)
	fmt.Fprintf(&sb, "%08x %s\n", crc32.Checksum(body, crcTable), body)
	tmp, err := os.CreateTemp(s.dir, ".manifest-*")
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.WriteString(sb.String()); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(s.dir, manifestName)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("seglog: %w", err)
	}
	return FsyncDir(s.dir)
}

// readManifest parses MANIFEST, returning the live segment names in order
// and the next segment number.
func readManifest(path string) ([]string, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("seglog: %w", err)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) < 2 {
		return nil, 0, fmt.Errorf("%w: %s: truncated", ErrBadManifest, path)
	}
	magic, ver, ok := strings.Cut(strings.TrimSpace(lines[0]), " ")
	if !ok || magic != ManifestMagic || !strings.HasPrefix(ver, "v") {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	var n int
	if _, err := fmt.Sscanf(ver, "v%d", &n); err != nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	if n != Version {
		return nil, 0, fmt.Errorf("%w: %s: v%d (this build reads v%d)",
			ErrVersion, path, n, Version)
	}
	crcHex, body, ok := strings.Cut(lines[1], " ")
	if !ok {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	var want uint32
	if _, err := fmt.Sscanf(crcHex, "%08x", &want); err != nil {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadManifest, path)
	}
	if crc32.Checksum([]byte(body), crcTable) != want {
		return nil, 0, fmt.Errorf("%w: %s: checksum mismatch", ErrBadManifest, path)
	}
	var doc struct {
		Next     uint64   `json:"next"`
		Segments []string `json:"segments"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return nil, 0, fmt.Errorf("%w: %s: %v", ErrBadManifest, path, err)
	}
	if len(doc.Segments) == 0 || doc.Next == 0 {
		return nil, 0, fmt.Errorf("%w: %s: empty segment list", ErrBadManifest, path)
	}
	for _, n := range doc.Segments {
		if n != filepath.Base(n) || !strings.HasPrefix(n, segPrefix) {
			return nil, 0, fmt.Errorf("%w: %s: bad segment name %q",
				ErrBadManifest, path, n)
		}
	}
	return doc.Segments, doc.Next, nil
}

// segmentHasFrames reports whether the file holds at least one intact frame.
func segmentHasFrames(path string) bool {
	payloads, _, _, err := parseSegment(path)
	return err == nil && len(payloads) > 0
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

// Appended returns how many frames this handle has appended since Open —
// compaction-trigger bookkeeping for callers.
func (s *Store) Appended() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Size returns the total on-disk size of the live segments.
func (s *Store) Size() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, n := range s.segs[:len(s.segs)-1] {
		if fi, err := os.Stat(filepath.Join(s.dir, n)); err == nil {
			total += fi.Size()
		}
	}
	return total + s.activeSize
}

// Close syncs pending frames and releases the handle.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.active.Sync()
	if cerr := s.active.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("seglog: %w", err)
	}
	return nil
}

// FsyncDir fsyncs a directory, making a just-renamed entry durable: on many
// filesystems a rename survives a crash only once its parent directory's
// metadata is flushed, so "temp file, fsync, rename" alone can lose the file
// entirely. Filesystems that reject directory fsync (EINVAL/ENOTSUP) are
// treated as having nothing to flush.
func FsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("seglog: fsync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return fmt.Errorf("seglog: fsync dir %s: %w", dir, err)
	}
	return nil
}
