// Package genlog is the append-only generation log behind the replicated
// serving tier: the primary appends one record per committed Network
// generation — the GenDelta exported by the commit, or a full-rebuild
// marker — and replicas tail the records (from the file, or shipped
// verbatim over the wire) to replay the primary's generations
// byte-for-byte without snapshot reloads.
//
// File layout (all integers little-endian):
//
//	magic   [4]byte  "FTCG"
//	version u8       1
//	records ...
//
// Each record:
//
//	length   u32   payload byte count
//	checksum u32   IEEE CRC-32 of the payload
//	payload  bytes (self-describing; see EncodeDelta)
//
// Record payload, version 1:
//
//	prevGen u64
//	gen     u64
//	token   u64
//	flags   u8    bit 0: full-rebuild marker
//
// then, for a full marker:
//
//	reasonLen u16, reason bytes
//
// or, for an incremental delta:
//
//	nOps    u32, nOps × { add u8, u u32, v u32 }
//	words   u32   payload words per XOR mask
//	nDirty  u32, nDirty × { idx u32, mask words×u64 }
//	nAdded  u32, nAdded × { idx u32, blobLen u32, MarshalEdgeLabel blob }
//
// Masks are spec.Words() long and added labels carry the current label
// encoding. Records written by earlier builds carry the legacy layout
// (2k power sums per Reed–Solomon level, in masks and in 'E' labels); they
// need no code here, because the label decoder and core.ApplyDelta
// convert them (DESIGN.md §3.10).
//
// The payload is the unit shipped to replicas (the OpLogRecord frames of a
// GET /genlog body carry it verbatim), so replicas and file readers decode
// identically.
// Any change to this layout must bump the version byte and the record
// version constant — the golden-fixture test enforces it.
//
// Durability model: records are written with a single Write call and
// fsynced before Append returns, so a record is either fully present or
// (after a crash mid-append) detectably torn. Open scans the file,
// validates every checksum, and truncates a torn or corrupt tail rather
// than serving doubtful records; corruption below the tail is an error.
//
// # Compaction
//
// Left alone, the log grows without bound in two dimensions: the file
// gains a record per commit and the in-memory window keeps every record.
// A Retention policy bounds both: when the window exceeds MaxRecords (or
// the file exceeds MaxBytes, or records older than MaxAge linger outside
// the MinRetain window), the serve layer compacts the log — it first
// writes a checkpoint (the primary's binary scheme snapshot at the current
// generation) to a sidecar file at path+".ckpt", then truncates the
// compacted prefix from both the file and memory, keeping the newest
// MinRetain records. Age is tracked in memory (the FTCG v1 record format
// carries no timestamps): a record's age runs from its Append, and records
// recovered by Open age from the moment the log was opened.
//
// Checkpoint sidecar layout (all integers little-endian):
//
//	magic   [4]byte "FTCC"
//	version u8      1
//	gen     u64     generation the snapshot captures
//	length  u64     snapshot payload byte count
//	crc     u32     IEEE CRC-32 of the payload
//	payload bytes   core scheme snapshot (ftc.Save / MarshalBinary bytes)
//
// Both the checkpoint and the rewritten log are written to a temp file,
// fsynced, and renamed into place — each is atomically either the old or
// the new version. The checkpoint is committed BEFORE the log is
// truncated, so at every instant (including across a crash between the
// two renames) the invariant holds that After(checkpointGen) is within
// the log's coverage: a replica bootstrapping from the checkpoint can
// always tail the remaining records. See DESIGN.md §3.14 for the full
// atomicity argument.
package genlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
)

// Version is the log format version, bumped on any layout change.
const Version = 1

var magic = [4]byte{'F', 'T', 'C', 'G'}

const headerLen = 5 // magic + version byte
const recHeaderLen = 8

// MaxRecordBytes bounds a single record payload. An incremental delta
// whose encoding exceeds it is demoted to a full-rebuild marker on append
// — replicas refetch a snapshot instead of streaming an unbounded frame —
// so wire frames and reader buffers stay bounded.
const MaxRecordBytes = 16 << 20

// CkptVersion is the checkpoint sidecar format version, bumped on any
// layout change.
const CkptVersion = 1

var ckptMagic = [4]byte{'F', 'T', 'C', 'C'}

// ckptHeaderLen is magic + version + gen + length + crc.
const ckptHeaderLen = 4 + 1 + 8 + 8 + 4

// Sentinel errors; test with errors.Is.
var (
	ErrBadMagic     = errors.New("genlog: bad magic")
	ErrBadVersion   = errors.New("genlog: unsupported version")
	ErrCorrupt      = errors.New("genlog: corrupt record")
	ErrBadRecord    = errors.New("genlog: malformed record payload")
	ErrGenOrder     = errors.New("genlog: generations out of order")
	ErrNoCheckpoint = errors.New("genlog: no checkpoint")
	ErrCompact      = errors.New("genlog: invalid compaction")
)

// Record is one log entry held in memory: the generation it produces plus
// its encoded payload, shipped verbatim to wire subscribers.
type Record struct {
	PrevGen uint64
	Gen     uint64
	Payload []byte
}

// Retention is the compaction policy. The zero value disables compaction
// (the historical unbounded behavior).
type Retention struct {
	// MaxRecords compacts the log when the retained window exceeds this
	// many records (0 = unbounded).
	MaxRecords int
	// MaxBytes compacts the log when the file exceeds this many bytes
	// (0 = unbounded).
	MaxBytes int64
	// MaxAge compacts records older than this out of the log (0 =
	// unbounded). Ages are measured against in-memory append times — the
	// record format carries no timestamps — so records that predate the
	// current process age from Open, and an age-only policy trips at the
	// first append (or CompactTarget poll) after expiry, not the instant
	// of it.
	MaxAge time.Duration
	// MinRetain is how many of the newest records every compaction keeps —
	// the replay window for subscribers slightly behind the head. Values
	// below 1 are treated as 1 so the log never empties.
	MinRetain int
}

// Enabled reports whether the policy can ever trip.
func (r Retention) Enabled() bool { return r.MaxRecords > 0 || r.MaxBytes > 0 || r.MaxAge > 0 }

func (r Retention) minRetain() int {
	if r.MinRetain < 1 {
		return 1
	}
	return r.MinRetain
}

// CheckpointInfo describes the current checkpoint sidecar.
type CheckpointInfo struct {
	Gen     uint64 // generation the snapshot captures
	Payload int64  // snapshot payload bytes (excluding the sidecar header)
}

// CompactResult reports one compaction.
type CompactResult struct {
	Dropped        int    // records removed from the window
	Retained       int    // records kept
	BytesReclaimed int64  // log file shrinkage
	CheckpointGen  uint64 // generation of the checkpoint written
}

// Stats is a point-in-time snapshot of the log's bounds and compaction
// counters, the source for /healthz and /metrics on a primary.
type Stats struct {
	FirstGen       uint64
	LastGen        uint64
	Records        int
	FileBytes      int64
	Compactions    uint64
	BytesReclaimed uint64
	CheckpointGen  uint64 // 0 when no checkpoint exists
}

// Log is an append-only generation log backed by one file. The retained
// records are kept in memory (they are deltas, small by construction) so
// subscription backfill never seeks the file; the file is the durable
// copy. With a Retention policy set, both the file and the in-memory
// window are bounded by checkpoint-and-truncate compaction.
//
// A Log is safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	records []Record
	// times[i] is when records[i] entered this process (Append time, or
	// Open time for recovered records) — the clock MaxAge retention reads.
	times []time.Time
	now   func() time.Time // injectable for retention tests

	ret       Retention
	fileBytes int64

	compactions    uint64
	bytesReclaimed uint64
	ckpt           CheckpointInfo
	hasCkpt        bool
}

// Open opens or creates the log at path, validating every existing record
// and truncating a torn tail left by a crashed append. A checkpoint
// sidecar at path+".ckpt", if present, is validated (magic, version,
// payload CRC) and republished through Checkpoint/OpenCheckpoint.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{f: f, path: path, now: time.Now}
	if err := l.scan(); err != nil {
		f.Close()
		return nil, err
	}
	// Recovered records have no durable timestamps; age them from now.
	openedAt := l.now()
	l.times = make([]time.Time, len(l.records))
	for i := range l.times {
		l.times[i] = openedAt
	}
	if err := l.loadCheckpoint(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// SetRetention installs (or replaces) the compaction policy. It does not
// compact by itself — the owner checks CompactTarget after appends (and
// once at startup) and drives Compact with a snapshot writer.
func (l *Log) SetRetention(r Retention) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ret = r
}

// CheckpointPath returns the checkpoint sidecar path for a log path.
func CheckpointPath(logPath string) string { return logPath + ".ckpt" }

// loadCheckpoint validates an existing checkpoint sidecar. A missing
// sidecar is fine (no checkpoint yet); a malformed one is an error — the
// rename-based write discipline never leaves a torn sidecar, so damage
// means real corruption and a compacted log without its checkpoint cannot
// bootstrap replicas.
func (l *Log) loadCheckpoint() error {
	data, err := os.ReadFile(CheckpointPath(l.path))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	info, err := parseCheckpoint(data)
	if err != nil {
		return err
	}
	l.ckpt, l.hasCkpt = info, true
	return nil
}

// parseCheckpoint validates a complete checkpoint file's bytes.
func parseCheckpoint(data []byte) (CheckpointInfo, error) {
	if len(data) < ckptHeaderLen || [4]byte(data[:4]) != ckptMagic {
		return CheckpointInfo{}, fmt.Errorf("%w: bad checkpoint magic", ErrBadMagic)
	}
	if data[4] != CkptVersion {
		return CheckpointInfo{}, fmt.Errorf("%w: checkpoint version %d, want %d", ErrBadVersion, data[4], CkptVersion)
	}
	gen := binary.LittleEndian.Uint64(data[5:])
	n := binary.LittleEndian.Uint64(data[13:])
	sum := binary.LittleEndian.Uint32(data[21:])
	payload := data[ckptHeaderLen:]
	if uint64(len(payload)) != n {
		return CheckpointInfo{}, fmt.Errorf("%w: checkpoint claims %d payload bytes, has %d", ErrCorrupt, n, len(payload))
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return CheckpointInfo{}, fmt.Errorf("%w: checkpoint payload checksum mismatch", ErrCorrupt)
	}
	return CheckpointInfo{Gen: gen, Payload: int64(n)}, nil
}

// scan loads and validates the whole file, writing the header if the file
// is empty and truncating a torn tail.
func (l *Log) scan() error {
	data, err := io.ReadAll(l.f)
	if err != nil {
		return err
	}
	if len(data) == 0 {
		var hdr [headerLen]byte
		copy(hdr[:], magic[:])
		hdr[4] = Version
		if _, err := l.f.Write(hdr[:]); err != nil {
			return err
		}
		l.fileBytes = headerLen
		return l.f.Sync()
	}
	if len(data) < headerLen || [4]byte(data[:4]) != magic {
		return ErrBadMagic
	}
	if data[4] != Version {
		return fmt.Errorf("%w: file version %d, want %d", ErrBadVersion, data[4], Version)
	}
	off := headerLen
	good := off
	for off < len(data) {
		if len(data)-off < recHeaderLen {
			break // torn tail: header cut short
		}
		n := int(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		if n > MaxRecordBytes {
			return fmt.Errorf("%w: record at offset %d claims %d bytes", ErrCorrupt, off, n)
		}
		if len(data)-off-recHeaderLen < n {
			break // torn tail: payload cut short
		}
		payload := data[off+recHeaderLen : off+recHeaderLen+n]
		if crc32.ChecksumIEEE(payload) != sum {
			// A checksum mismatch on the last record is a torn write and
			// is dropped; anything with records after it is corruption.
			if off+recHeaderLen+n == len(data) {
				break
			}
			return fmt.Errorf("%w: checksum mismatch at offset %d", ErrCorrupt, off)
		}
		prevGen, gen, err := peekGens(payload)
		if err != nil {
			return err
		}
		if err := l.checkOrder(prevGen, gen); err != nil {
			return err
		}
		l.records = append(l.records, Record{PrevGen: prevGen, Gen: gen, Payload: append([]byte(nil), payload...)})
		off += recHeaderLen + n
		good = off
	}
	if good < len(data) {
		if err := l.f.Truncate(int64(good)); err != nil {
			return err
		}
	}
	if _, err := l.f.Seek(int64(good), io.SeekStart); err != nil {
		return err
	}
	l.fileBytes = int64(good)
	return nil
}

// checkOrder enforces that a record extends the log's last generation.
func (l *Log) checkOrder(prevGen, gen uint64) error {
	if gen != prevGen+1 {
		return fmt.Errorf("%w: record %d -> %d is not one generation", ErrGenOrder, prevGen, gen)
	}
	if n := len(l.records); n > 0 && prevGen != l.records[n-1].Gen {
		return fmt.Errorf("%w: record extends generation %d, log ends at %d",
			ErrGenOrder, prevGen, l.records[n-1].Gen)
	}
	return nil
}

// Append encodes and durably appends one committed delta. A delta whose
// encoding exceeds MaxRecordBytes is demoted to a full-rebuild marker.
// Append returns the record as kept in memory (shipped verbatim to
// subscribers).
func (l *Log) Append(d *core.GenDelta) (Record, error) {
	payload := EncodeDelta(d)
	if len(payload) > MaxRecordBytes {
		payload = EncodeDelta(&core.GenDelta{
			PrevGen: d.PrevGen, Gen: d.Gen, Token: d.Token,
			Full: true, Reason: "record too large for log shipping",
		})
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.checkOrder(d.PrevGen, d.Gen); err != nil {
		return Record{}, err
	}
	buf := make([]byte, recHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.ChecksumIEEE(payload))
	copy(buf[recHeaderLen:], payload)
	// Failpoint "genlog.append": a torn-write policy writes a strict
	// prefix of the record and fails — the crash-shaped injection whose
	// on-disk tail Open's scan must truncate away.
	if allow, ferr := faultinject.FailWrite("genlog.append", len(buf)); ferr != nil {
		if allow > 0 {
			_, _ = l.f.Write(buf[:allow])
		}
		return Record{}, ferr
	}
	if _, err := l.f.Write(buf); err != nil {
		return Record{}, err
	}
	// Failpoint "genlog.fsync": error injection fails the append after the
	// bytes are written; latency injection models a slow disk.
	if err := faultinject.Fire("genlog.fsync"); err != nil {
		return Record{}, err
	}
	if err := l.f.Sync(); err != nil {
		return Record{}, err
	}
	l.fileBytes += int64(len(buf))
	rec := Record{PrevGen: d.PrevGen, Gen: d.Gen, Payload: payload}
	l.records = append(l.records, rec)
	l.times = append(l.times, l.now())
	return rec, nil
}

// Len returns the record count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.records)
}

// Bounds returns the first and last generation the log can produce (0, 0
// when empty). A subscriber at generation g can be served iff
// first-1 ≤ g; anything older must refetch a snapshot.
func (l *Log) Bounds() (first, last uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.records) == 0 {
		return 0, 0
	}
	return l.records[0].Gen, l.records[len(l.records)-1].Gen
}

// After returns the records with Gen > gen, oldest first. The returned
// slice aliases the log's immutable in-memory records; callers must not
// modify payloads. The alias stays valid across concurrent Append and
// Compact calls: the capacity is clamped so appends never write into the
// returned window, and compaction installs a freshly copied backing array
// instead of shifting records within the old one — the old array (and any
// in-flight wire backfill iterating it) is left untouched. ok is false
// when gen is below the log's coverage (the subscriber must refetch a
// snapshot instead).
func (l *Log) After(gen uint64) (recs []Record, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.records) == 0 {
		return nil, true
	}
	if gen+1 < l.records[0].PrevGen+1 { // gen < firstPrevGen, overflow-safe
		return nil, false
	}
	lo, hi := 0, len(l.records)
	for lo < hi {
		mid := (lo + hi) / 2
		if l.records[mid].Gen <= gen {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return l.records[lo:len(l.records):len(l.records)], true
}

// Close closes the backing file.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}

// Stats snapshots the log's bounds and compaction counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Records:        len(l.records),
		FileBytes:      l.fileBytes,
		Compactions:    l.compactions,
		BytesReclaimed: l.bytesReclaimed,
	}
	if len(l.records) > 0 {
		st.FirstGen = l.records[0].Gen
		st.LastGen = l.records[len(l.records)-1].Gen
	}
	if l.hasCkpt {
		st.CheckpointGen = l.ckpt.Gen
	}
	return st
}

// Checkpoint returns the current checkpoint metadata, ok=false when no
// compaction has produced one yet.
func (l *Log) Checkpoint() (CheckpointInfo, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ckpt, l.hasCkpt
}

// OpenCheckpoint opens the checkpoint sidecar for streaming, positioned at
// the start of the snapshot payload, together with its metadata. The open
// happens under the log's lock, so the returned reader is pinned to a
// checkpoint that was consistent with the retained window at that instant
// — a compaction renaming a newer sidecar over the path cannot disturb
// bytes already opened. Returns ErrNoCheckpoint when none exists, or when
// a full-rebuild marker is newer than it: a replica that bootstrapped
// from that checkpoint would tail into the marker and refetch forever.
func (l *Log) OpenCheckpoint() (r io.ReadCloser, info CheckpointInfo, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.hasCkpt {
		return nil, CheckpointInfo{}, ErrNoCheckpoint
	}
	// Compaction keeps every record newer than the checkpoint.
	for _, rec := range l.records {
		if rec.Gen > l.ckpt.Gen && rec.Payload[24]&flagFull != 0 {
			return nil, CheckpointInfo{}, fmt.Errorf("%w: checkpoint at generation %d predates the full-rebuild marker at %d",
				ErrNoCheckpoint, l.ckpt.Gen, rec.Gen)
		}
	}
	f, err := os.Open(CheckpointPath(l.path))
	if err != nil {
		return nil, CheckpointInfo{}, err
	}
	if _, err := f.Seek(ckptHeaderLen, io.SeekStart); err != nil {
		f.Close()
		return nil, CheckpointInfo{}, err
	}
	return f, l.ckpt, nil
}

// CompactTarget reports whether the retention policy has tripped and, if
// so, the generation to compact through (everything at or below it is
// dropped, keeping the newest MinRetain records). The caller then drives
// Compact with a snapshot of the current generation.
func (l *Log) CompactTarget() (throughGen uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.ret.Enabled() {
		return 0, false
	}
	keep := l.ret.minRetain()
	if len(l.records) <= keep {
		return 0, false
	}
	tripped := (l.ret.MaxRecords > 0 && len(l.records) > l.ret.MaxRecords) ||
		(l.ret.MaxBytes > 0 && l.fileBytes > l.ret.MaxBytes)
	if tripped {
		return l.records[len(l.records)-keep-1].Gen, true
	}
	if l.ret.MaxAge > 0 {
		// Drop the expired prefix, never reaching into the MinRetain
		// window — the same hysteresis floor the size policies honor.
		cutoff := l.now().Add(-l.ret.MaxAge)
		exp := 0
		for exp < len(l.records)-keep && l.times[exp].Before(cutoff) {
			exp++
		}
		if exp > 0 {
			return l.records[exp-1].Gen, true
		}
	}
	return 0, false
}

// Compact checkpoints and truncates the log: it writes a checkpoint — the
// snapshot produced by save, which must capture generation ckptGen — to
// the sidecar path, then drops every record with Gen ≤ throughGen from
// both the file and the in-memory window. ckptGen must be at least
// throughGen (otherwise a replica bootstrapped from the checkpoint could
// land below the retained window's coverage) and at least one record must
// survive. Both files are replaced by atomic rename, checkpoint first, so
// a crash between the two leaves a longer-than-necessary log, never an
// uncovered checkpoint.
//
// Compact holds the log's lock for the duration, blocking appends and
// backfills while the snapshot is written; the serve layer calls it from
// the commit path (already serialized), so the stall is one commit's.
func (l *Log) Compact(throughGen, ckptGen uint64, save func(io.Writer) error) (CompactResult, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if ckptGen < throughGen {
		return CompactResult{}, fmt.Errorf("%w: checkpoint generation %d below compaction point %d",
			ErrCompact, ckptGen, throughGen)
	}
	// cut = first retained index.
	cut := 0
	for cut < len(l.records) && l.records[cut].Gen <= throughGen {
		cut++
	}
	if cut == 0 {
		return CompactResult{Retained: len(l.records)}, nil
	}
	if cut == len(l.records) {
		return CompactResult{}, fmt.Errorf("%w: compaction through %d would drop the entire window",
			ErrCompact, throughGen)
	}
	// Failpoint "genlog.compact": fail the compaction before the
	// checkpoint is cut — retention re-trips on the next commit, which is
	// the recovery path the chaos harness exercises.
	if err := faultinject.Fire("genlog.compact"); err != nil {
		return CompactResult{}, err
	}
	if err := l.writeCheckpoint(ckptGen, save); err != nil {
		return CompactResult{}, fmt.Errorf("genlog: checkpoint: %w", err)
	}
	newSize, err := l.rewriteLog(cut)
	if err != nil {
		return CompactResult{}, fmt.Errorf("genlog: truncate: %w", err)
	}
	reclaimed := l.fileBytes - newSize
	// Install a freshly copied backing array: slices handed out by After
	// (in-flight wire backfills) keep aliasing the old, untouched array —
	// this copy is what makes After safe against use-after-truncate.
	l.records = append(make([]Record, 0, len(l.records)-cut), l.records[cut:]...)
	l.times = append(make([]time.Time, 0, len(l.times)-cut), l.times[cut:]...)
	l.fileBytes = newSize
	l.compactions++
	l.bytesReclaimed += uint64(reclaimed)
	return CompactResult{
		Dropped:        cut,
		Retained:       len(l.records),
		BytesReclaimed: reclaimed,
		CheckpointGen:  ckptGen,
	}, nil
}

// writeCheckpoint writes the sidecar atomically: payload to a temp file
// through a CRC-tracking writer, header backfilled, fsync, rename.
func (l *Log) writeCheckpoint(gen uint64, save func(io.Writer) error) error {
	dst := CheckpointPath(l.path)
	tmp := dst + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after a successful rename
	var hdr [ckptHeaderLen]byte
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	cw := &crcWriter{w: f}
	if err := save(cw); err != nil {
		f.Close()
		return err
	}
	copy(hdr[:4], ckptMagic[:])
	hdr[4] = CkptVersion
	binary.LittleEndian.PutUint64(hdr[5:], gen)
	binary.LittleEndian.PutUint64(hdr[13:], uint64(cw.n))
	binary.LittleEndian.PutUint32(hdr[21:], cw.sum)
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, dst); err != nil {
		return err
	}
	l.ckpt = CheckpointInfo{Gen: gen, Payload: cw.n}
	l.hasCkpt = true
	return nil
}

// rewriteLog writes header + records[cut:] to a temp file, fsyncs, renames
// it over the log path, and swaps the live file handle. Returns the new
// file size.
func (l *Log) rewriteLog(cut int) (int64, error) {
	tmp := l.path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	defer os.Remove(tmp)
	var hdr [headerLen]byte
	copy(hdr[:], magic[:])
	hdr[4] = Version
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return 0, err
	}
	var rh [recHeaderLen]byte
	for _, rec := range l.records[cut:] {
		binary.LittleEndian.PutUint32(rh[:], uint32(len(rec.Payload)))
		binary.LittleEndian.PutUint32(rh[4:], crc32.ChecksumIEEE(rec.Payload))
		if _, err := f.Write(rh[:]); err != nil {
			f.Close()
			return 0, err
		}
		if _, err := f.Write(rec.Payload); err != nil {
			f.Close()
			return 0, err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, err
	}
	size, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return 0, err
	}
	nf, err := os.OpenFile(l.path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, err
	}
	if _, err := nf.Seek(size, io.SeekStart); err != nil {
		nf.Close()
		return 0, err
	}
	l.f.Close()
	l.f = nf
	return size, nil
}

// crcWriter tees writes into an IEEE CRC-32 and a byte count.
type crcWriter struct {
	w   io.Writer
	sum uint32
	n   int64
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.sum = crc32.Update(c.sum, crc32.IEEETable, p[:n])
	c.n += int64(n)
	return n, err
}

// --- payload codec ---

const (
	flagFull = 1 << 0
)

// EncodeDelta encodes one delta as a version-1 record payload, into one
// buffer sized before anything is written.
func EncodeDelta(d *core.GenDelta) []byte {
	size := 25
	if d.Full {
		size += 2 + min(len(d.Reason), 1<<16-1)
	} else {
		size += 4 + 9*len(d.Ops) + 8 + 4
		for _, mask := range d.DirtyXor {
			size += 4 + 8*len(mask)
		}
		for _, l := range d.AddedLabels {
			size += 8 + core.EdgeLabelBits(l)/8
		}
	}
	b := make([]byte, 0, size)
	b = binary.LittleEndian.AppendUint64(b, d.PrevGen)
	b = binary.LittleEndian.AppendUint64(b, d.Gen)
	b = binary.LittleEndian.AppendUint64(b, d.Token)
	if d.Full {
		b = append(b, flagFull)
		b = binary.LittleEndian.AppendUint16(b, uint16(min(len(d.Reason), 1<<16-1)))
		b = append(b, d.Reason[:min(len(d.Reason), 1<<16-1)]...)
		return b
	}
	b = append(b, 0)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.Ops)))
	for _, op := range d.Ops {
		add := byte(0)
		if op.Add {
			add = 1
		}
		b = append(b, add)
		b = binary.LittleEndian.AppendUint32(b, uint32(op.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(op.V))
	}
	words := 0
	if len(d.DirtyXor) > 0 {
		words = len(d.DirtyXor[0])
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(words))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.DirtyIdx)))
	for i, idx := range d.DirtyIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(idx))
		for _, w := range d.DirtyXor[i] {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d.AddedIdx)))
	for i, idx := range d.AddedIdx {
		b = binary.LittleEndian.AppendUint32(b, uint32(idx))
		lenPos := len(b)
		b = binary.LittleEndian.AppendUint32(b, 0) // blobLen, backfilled
		b = core.AppendEdgeLabel(b, d.AddedLabels[i])
		binary.LittleEndian.PutUint32(b[lenPos:], uint32(len(b)-lenPos-4))
	}
	return b
}

// DecodeDelta decodes a version-1 record payload.
func DecodeDelta(payload []byte) (*core.GenDelta, error) {
	p := payload
	need := func(n int) error {
		if len(p) < n {
			return fmt.Errorf("%w: truncated", ErrBadRecord)
		}
		return nil
	}
	if err := need(25); err != nil {
		return nil, err
	}
	d := &core.GenDelta{
		PrevGen: binary.LittleEndian.Uint64(p),
		Gen:     binary.LittleEndian.Uint64(p[8:]),
		Token:   binary.LittleEndian.Uint64(p[16:]),
	}
	flags := p[24]
	p = p[25:]
	if flags&^byte(flagFull) != 0 {
		return nil, fmt.Errorf("%w: unknown flags %#x", ErrBadRecord, flags)
	}
	if flags&flagFull != 0 {
		d.Full = true
		if err := need(2); err != nil {
			return nil, err
		}
		n := int(binary.LittleEndian.Uint16(p))
		p = p[2:]
		if err := need(n); err != nil {
			return nil, err
		}
		d.Reason = string(p[:n])
		p = p[n:]
		if len(p) != 0 {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(p))
		}
		return d, nil
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nOps := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if err := need(nOps * 9); err != nil {
		return nil, err
	}
	d.Ops = make([]core.Update, nOps)
	for i := range d.Ops {
		d.Ops[i] = core.Update{
			Add: p[0] != 0,
			U:   int(binary.LittleEndian.Uint32(p[1:])),
			V:   int(binary.LittleEndian.Uint32(p[5:])),
		}
		if p[0] > 1 {
			return nil, fmt.Errorf("%w: op %d has add byte %d", ErrBadRecord, i, p[0])
		}
		p = p[9:]
	}
	if err := need(8); err != nil {
		return nil, err
	}
	words := int(binary.LittleEndian.Uint32(p))
	nDirty := int(binary.LittleEndian.Uint32(p[4:]))
	p = p[8:]
	if words > 1<<20 || nDirty > 1<<28 {
		return nil, fmt.Errorf("%w: implausible dirty shape (%d × %d words)", ErrBadRecord, nDirty, words)
	}
	if err := need(nDirty * (4 + 8*words)); err != nil {
		return nil, err
	}
	d.DirtyIdx = make([]int, nDirty)
	d.DirtyXor = make([][]uint64, nDirty)
	for i := 0; i < nDirty; i++ {
		d.DirtyIdx[i] = int(binary.LittleEndian.Uint32(p))
		p = p[4:]
		mask := make([]uint64, words)
		for w := range mask {
			mask[w] = binary.LittleEndian.Uint64(p)
			p = p[8:]
		}
		d.DirtyXor[i] = mask
	}
	if err := need(4); err != nil {
		return nil, err
	}
	nAdded := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	// Each added label needs at least its 8-byte index and length, so a
	// count the payload cannot hold is refused before it sizes anything.
	if nAdded > len(p)/8 {
		return nil, fmt.Errorf("%w: implausible added count %d", ErrBadRecord, nAdded)
	}
	d.AddedIdx = make([]int, 0, nAdded)
	d.AddedLabels = make([]core.EdgeLabel, 0, nAdded)
	for i := 0; i < nAdded; i++ {
		if err := need(8); err != nil {
			return nil, err
		}
		idx := int(binary.LittleEndian.Uint32(p))
		blobLen := int(binary.LittleEndian.Uint32(p[4:]))
		p = p[8:]
		if err := need(blobLen); err != nil {
			return nil, err
		}
		l, err := core.UnmarshalEdgeLabel(p[:blobLen])
		if err != nil {
			return nil, fmt.Errorf("%w: added label %d: %v", ErrBadRecord, i, err)
		}
		p = p[blobLen:]
		d.AddedIdx = append(d.AddedIdx, idx)
		d.AddedLabels = append(d.AddedLabels, l)
	}
	if len(p) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(p))
	}
	return d, nil
}

// peekGens extracts (prevGen, gen) from a payload without a full decode.
func peekGens(payload []byte) (prevGen, gen uint64, err error) {
	if len(payload) < 25 {
		return 0, 0, fmt.Errorf("%w: truncated", ErrBadRecord)
	}
	return binary.LittleEndian.Uint64(payload), binary.LittleEndian.Uint64(payload[8:]), nil
}
