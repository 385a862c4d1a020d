package genlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
)

// Checkpoint/compaction fixtures: the sidecar format and the truncated log
// layout are both pinned. Any change to either alters these bytes and must
// ship regenerated fixtures under a bumped version. legacyCompactedPath
// (with its sidecar) is the same compaction written by builds whose labels
// carried 2k power sums per Reed–Solomon level — its checkpoint is a v3
// snapshot — and is never regenerated.
const (
	goldenCkptPath      = "testdata/golden_genlog_compacted_v1_odd.ckpt"
	goldenCompactedPath = "testdata/golden_genlog_compacted_v1_odd"
	legacyCompactedPath = "testdata/golden_genlog_compacted_v1"
)

// synthDeltas fabricates n contiguous full-marker deltas starting at
// generation start+1 — cheap fuel for policy and race tests that never
// replay them.
func synthDeltas(n int, start uint64) []*core.GenDelta {
	ds := make([]*core.GenDelta, 0, n)
	for i := 0; i < n; i++ {
		g := start + uint64(i)
		ds = append(ds, &core.GenDelta{
			PrevGen: g, Gen: g + 1, Token: uint64(i) * 7,
			Full: true, Reason: "synthetic",
		})
	}
	return ds
}

func saveBytes(b []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(b)
		return err
	}
}

// TestCompactTargetPolicy exercises the retention trip conditions.
func TestCompactTargetPolicy(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, synthDeltas(10, 1)) // gens 2..11
	defer l.Close()

	if _, ok := l.CompactTarget(); ok {
		t.Fatal("retention tripped with no policy set")
	}
	l.SetRetention(Retention{MaxRecords: 20, MinRetain: 3})
	if _, ok := l.CompactTarget(); ok {
		t.Fatal("retention tripped below MaxRecords")
	}
	l.SetRetention(Retention{MaxRecords: 4, MinRetain: 3})
	through, ok := l.CompactTarget()
	if !ok {
		t.Fatal("retention did not trip with 10 records > MaxRecords 4")
	}
	// Keep the newest 3 records (gens 9..11): compact through gen 8.
	if through != 8 {
		t.Fatalf("CompactTarget = %d, want 8 (keep newest 3 of gens 2..11)", through)
	}

	// Byte-based policy: a tiny cap trips immediately, and MinRetain still
	// floors the window.
	l.SetRetention(Retention{MaxBytes: 1, MinRetain: 5})
	through, ok = l.CompactTarget()
	if !ok || through != 6 {
		t.Fatalf("byte policy CompactTarget = (%d, %v), want (6, true)", through, ok)
	}

	// A window already at MinRetain never trips, however small the caps.
	l.SetRetention(Retention{MaxRecords: 1, MaxBytes: 1, MinRetain: 10})
	if _, ok := l.CompactTarget(); ok {
		t.Fatal("retention tripped with the whole window inside MinRetain")
	}
}

// TestCompactErrors asserts the compaction guard rails: a checkpoint below
// the compaction point and a cut that would empty the window are refused,
// and a cut below coverage is a no-op.
func TestCompactErrors(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, synthDeltas(5, 1)) // gens 2..6
	defer l.Close()

	if _, err := l.Compact(4, 3, saveBytes([]byte("x"))); !errors.Is(err, ErrCompact) {
		t.Fatalf("Compact(through=4, ckpt=3) = %v, want ErrCompact", err)
	}
	if _, err := l.Compact(6, 6, saveBytes([]byte("x"))); !errors.Is(err, ErrCompact) {
		t.Fatalf("Compact dropping entire window = %v, want ErrCompact", err)
	}
	res, err := l.Compact(1, 6, saveBytes([]byte("x")))
	if err != nil || res.Dropped != 0 || res.Retained != 5 {
		t.Fatalf("no-op Compact = (%+v, %v), want 0 dropped / 5 retained", res, err)
	}
	if _, ok := l.Checkpoint(); ok {
		t.Fatal("no-op compaction wrote a checkpoint")
	}
}

// TestGoldenCheckpointCompatibility locks the checkpoint sidecar format and
// the compacted log layout: the fixed golden run compacted through gen 3
// with a gen-5 checkpoint must reproduce the committed fixture bytes, the
// fixture sidecar must parse and its payload decode to the gen-5 scheme,
// and the compacted fixture must reopen with its checkpoint attached — the
// open-after-compaction compatibility contract. The legacy compacted
// fixture must reopen the same way, and both its checkpoint and its
// retained record must yield the primary's gen-5 labels.
func TestGoldenCheckpointCompatibility(t *testing.T) {
	d, deltas, schemes := buildGoldenRun(t)
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, deltas) // gens 2..5
	s := d.Scheme()                // generation 5
	snap, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	res, err := l.Compact(3, s.Generation(), saveBytes(snap))
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if res.Dropped != 2 || res.Retained != 2 || res.CheckpointGen != 5 || res.BytesReclaimed <= 0 {
		t.Fatalf("Compact = %+v, want 2 dropped / 2 retained / checkpoint 5 / bytes reclaimed", res)
	}
	l.Close()

	gotLog, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotCkpt, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCompactedPath, gotLog, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCkptPath, gotCkpt, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes) and %s (%d bytes)",
			goldenCompactedPath, len(gotLog), goldenCkptPath, len(gotCkpt))
	}
	wantLog, err := os.ReadFile(goldenCompactedPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	wantCkpt, err := os.ReadFile(goldenCkptPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	if !bytes.Equal(gotLog, wantLog) {
		t.Fatalf("compacted log bytes diverge from %s (%d vs %d bytes): the layout changed — bump Version and regenerate with -update",
			goldenCompactedPath, len(gotLog), len(wantLog))
	}
	if !bytes.Equal(gotCkpt, wantCkpt) {
		t.Fatalf("checkpoint bytes diverge from %s (%d vs %d bytes): the sidecar format changed — bump CkptVersion and regenerate with -update",
			goldenCkptPath, len(gotCkpt), len(wantCkpt))
	}

	// The fixture sidecar must parse (magic/version/CRC) and its payload
	// must decode to the primary's gen-5 scheme.
	info, err := parseCheckpoint(wantCkpt)
	if err != nil {
		t.Fatalf("parseCheckpoint(fixture): %v", err)
	}
	if info.Gen != 5 || info.Payload != int64(len(snap)) {
		t.Fatalf("fixture checkpoint = %+v, want gen 5 / %d payload bytes", info, len(snap))
	}
	sc, err := core.UnmarshalScheme(wantCkpt[ckptHeaderLen:])
	if err != nil {
		t.Fatalf("checkpoint payload decode: %v", err)
	}
	if sc.Generation() != 5 || sc.Token() != s.Token() {
		t.Fatalf("checkpoint payload at (gen %d, token %#x), want (5, %#x)",
			sc.Generation(), sc.Token(), s.Token())
	}

	// Open-after-compaction: the fixture log must reopen with the sidecar
	// attached, serve only the retained window, and accept further appends.
	gl, err := Open(goldenCompactedPath)
	if err != nil {
		t.Fatalf("Open(compacted fixture): %v", err)
	}
	defer gl.Close()
	if first, last := gl.Bounds(); first != 4 || last != 5 {
		t.Fatalf("compacted bounds = (%d, %d), want (4, 5)", first, last)
	}
	ck, ok := gl.Checkpoint()
	if !ok || ck.Gen != 5 {
		t.Fatalf("reopened checkpoint = (%+v, %v), want gen 5", ck, ok)
	}
	if _, ok := gl.After(2); ok {
		t.Fatal("After(2) served below the compacted window")
	}
	if recs, ok := gl.After(ck.Gen); !ok || len(recs) != 0 {
		t.Fatalf("After(checkpoint gen) = (%d, %v), want empty ok — a checkpoint-bootstrapped replica must be able to tail", len(recs), ok)
	}
	r, ri, err := gl.OpenCheckpoint()
	if err != nil {
		t.Fatalf("OpenCheckpoint: %v", err)
	}
	payload, err := io.ReadAll(r)
	r.Close()
	if err != nil || int64(len(payload)) != ri.Payload || !bytes.Equal(payload, snap) {
		t.Fatalf("OpenCheckpoint streamed %d bytes (err %v), want the %d-byte snapshot", len(payload), err, len(snap))
	}

	legacy, err := Open(legacyCompactedPath)
	if err != nil {
		t.Fatalf("Open(legacy compacted fixture): %v", err)
	}
	defer legacy.Close()
	if first, last := legacy.Bounds(); first != 4 || last != 5 {
		t.Fatalf("legacy compacted bounds = (%d, %d), want (4, 5)", first, last)
	}
	r, _, err = legacy.OpenCheckpoint()
	if err != nil {
		t.Fatalf("legacy OpenCheckpoint: %v", err)
	}
	payload, err = io.ReadAll(r)
	r.Close()
	if err != nil || payload[6] != 3 {
		t.Fatalf("legacy checkpoint: %d bytes (err %v), want a v3 snapshot", len(payload), err)
	}
	sc, err = core.UnmarshalScheme(payload)
	if err != nil {
		t.Fatalf("legacy checkpoint payload decode: %v", err)
	}
	assertSameLabels(t, sc, s)
	if resaved, err := sc.MarshalBinary(); err != nil || !bytes.Equal(resaved, snap) {
		t.Fatalf("saving the legacy checkpoint's scheme: %d bytes (err %v), want the fresh %d-byte snapshot", len(resaved), err, len(snap))
	}
	recs, ok := legacy.After(4)
	if !ok || len(recs) != 1 {
		t.Fatalf("legacy After(4) = (%d, %v), want the gen-5 record", len(recs), ok)
	}
	delta, err := DecodeDelta(recs[0].Payload)
	if err != nil {
		t.Fatalf("legacy gen-5 record: %v", err)
	}
	_, next, err := core.ApplyDelta(schemes[4], delta)
	if err != nil {
		t.Fatalf("legacy gen-5 replay: %v", err)
	}
	assertSameLabels(t, next, s)
}

// TestCheckpointBehindFullMarker: a checkpoint older than the log's newest
// full-rebuild marker cannot bootstrap a replica, so OpenCheckpoint
// refuses it with ErrNoCheckpoint — after Append and after Open's scan
// recovers the marker — until a compaction checkpoints past the marker.
func TestCheckpointBehindFullMarker(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, synthDeltas(4, 0)) // full markers, gens 1..4
	if _, err := l.Compact(2, 4, saveBytes([]byte("snapshot at 4"))); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	open := func() error {
		r, _, err := l.OpenCheckpoint()
		if err == nil {
			r.Close()
		}
		return err
	}
	if err := open(); err != nil {
		t.Fatalf("checkpoint at the newest marker refused: %v", err)
	}
	if _, err := l.Append(synthDeltas(1, 4)[0]); err != nil {
		t.Fatal(err)
	}
	if err := open(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("checkpoint behind the marker appended at 5: err %v, want ErrNoCheckpoint", err)
	}
	l.Close()
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := open(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("checkpoint behind the marker recovered by Open: err %v, want ErrNoCheckpoint", err)
	}
	if _, err := l.Compact(4, 5, saveBytes([]byte("snapshot at 5"))); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := open(); err != nil {
		t.Fatalf("checkpoint at the marker refused: %v", err)
	}
}

// TestCompactBoundsWindow drives a long synthetic run through the policy
// and asserts the file and in-memory window stay bounded while the
// checkpoint tracks the head — the retention invariant the serve layer
// relies on.
func TestCompactBoundsWindow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetRetention(Retention{MaxRecords: 8, MinRetain: 3})

	var maxLen int
	var maxBytes int64
	for _, d := range synthDeltas(100, 1) {
		if _, err := l.Append(d); err != nil {
			t.Fatal(err)
		}
		if through, ok := l.CompactTarget(); ok {
			if _, err := l.Compact(through, d.Gen, saveBytes([]byte("snapshot"))); err != nil {
				t.Fatal(err)
			}
			// The checkpoint must stay within the retained window's
			// coverage so After(ckptGen) always succeeds.
			ck, _ := l.Checkpoint()
			if _, ok := l.After(ck.Gen); !ok {
				t.Fatalf("After(checkpoint gen %d) refused right after compaction", ck.Gen)
			}
		}
		st := l.Stats()
		if st.Records > maxLen {
			maxLen = st.Records
		}
		if st.FileBytes > maxBytes {
			maxBytes = st.FileBytes
		}
	}
	st := l.Stats()
	if maxLen > 9 { // MaxRecords + the append that trips the policy
		t.Fatalf("in-memory window peaked at %d records, policy caps at 8", maxLen)
	}
	if st.Compactions == 0 || st.BytesReclaimed == 0 {
		t.Fatalf("no compactions recorded: %+v", st)
	}
	if st.LastGen != 101 || st.CheckpointGen == 0 {
		t.Fatalf("final stats %+v, want head 101 with a checkpoint", st)
	}
	// File bound: header + ~9 max-window records; synthetic records are
	// tiny, so 4KB is generous — the point is it did not grow with 100
	// appends.
	if maxBytes > 4096 {
		t.Fatalf("log file peaked at %d bytes under an 8-record policy", maxBytes)
	}
}

// TestAfterCompactRace interleaves After backfills (reading record
// payloads, as the primary's GET /genlog does) with Append and Compact under
// -race: the regression test for the use-after-truncate hazard — Compact
// must never mutate a backing array an in-flight backfill still aliases.
func TestAfterCompactRace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "gen.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.SetRetention(Retention{MaxRecords: 24, MinRetain: 8})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var sink byte
			for {
				select {
				case <-stop:
					_ = sink
					return
				default:
				}
				first, last := l.Bounds()
				if last == 0 {
					continue
				}
				// Subscribe anywhere in (and just below) the window; below
				// coverage must be refused, in coverage must yield records
				// whose payloads stay readable across concurrent Compacts.
				gen := first - 1 + uint64(rng.Int63n(int64(last-first)+2))
				recs, ok := l.After(gen)
				if !ok {
					continue
				}
				prev := gen
				for _, rec := range recs {
					if rec.Gen <= prev {
						t.Errorf("After(%d) out of order: gen %d after %d", gen, rec.Gen, prev)
						return
					}
					prev = rec.Gen
					for _, b := range rec.Payload {
						sink ^= b
					}
				}
			}
		}(int64(w))
	}

	for _, d := range synthDeltas(300, 1) {
		if _, err := l.Append(d); err != nil {
			t.Fatal(err)
		}
		if through, ok := l.CompactTarget(); ok {
			if _, err := l.Compact(through, d.Gen, saveBytes([]byte("snapshot"))); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// FuzzParseCheckpoint feeds arbitrary bytes to the checkpoint sidecar
// parser, the one FTCC decoder: it must never panic, refuse with one of
// the log's sentinel errors, and accept only a payload of exactly the
// declared length whose CRC-32 matches the header. The seeds are a
// checkpoint Compact wrote and truncations of it.
func FuzzParseCheckpoint(f *testing.F) {
	path := filepath.Join(f.TempDir(), "gen.log")
	l := writeLog(f, path, synthDeltas(4, 1)) // gens 2..5
	if _, err := l.Compact(3, 5, saveBytes([]byte("scheme snapshot at generation 5"))); err != nil {
		f.Fatal(err)
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(CheckpointPath(path))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{len(data), len(data) - 1, ckptHeaderLen, ckptHeaderLen - 1, 5, 0} {
		f.Add(data[:n])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		info, err := parseCheckpoint(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrBadVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("parse error %v is not a log sentinel", err)
			}
			return
		}
		payload := data[ckptHeaderLen:]
		if info.Payload != int64(len(payload)) || binary.LittleEndian.Uint64(data[13:]) != uint64(len(payload)) {
			t.Fatalf("accepted %d payload bytes, header declares %d, info says %d",
				len(payload), binary.LittleEndian.Uint64(data[13:]), info.Payload)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[21:]) {
			t.Fatal("accepted a payload whose CRC-32 does not match the header")
		}
		if info.Gen != binary.LittleEndian.Uint64(data[5:]) {
			t.Fatalf("accepted generation %d, header declares %d", info.Gen, binary.LittleEndian.Uint64(data[5:]))
		}
	})
}
