package genlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "regenerate golden log fixtures")

// goldenPath pins the record format: any layout change alters these bytes
// and must ship a fixture regenerated under a bumped Version.
// legacyGoldenPath is the same run as written by builds whose masks and
// added labels carried 2k power sums per Reed–Solomon level; it is never
// regenerated, and pins that replicas still replay such records.
const (
	goldenPath       = "testdata/golden_genlog_v1_odd"
	legacyGoldenPath = "testdata/golden_genlog_v1"
)

// buildGoldenRun drives a deterministic Dynamic through a fixed commit
// sequence — incremental batches, a forest-breaking rebuild (full marker),
// and a post-rebuild incremental batch — returning the deltas in order and
// the primary's scheme at every generation it passed through (1..5).
func buildGoldenRun(t *testing.T) (*core.Dynamic, []*core.GenDelta, map[uint64]*core.Scheme) {
	t.Helper()
	g := workload.Petersen()
	d, err := core.NewDynamic(g.Clone(), core.Params{MaxFaults: 2, Kind: core.KindDetNetFind})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	schemes := map[uint64]*core.Scheme{d.Scheme().Generation(): d.Scheme()}
	// Petersen is 3-regular and connected: every absent pair is an
	// incremental-eligible insertion, and inserted edges are non-tree.
	batches := [][]core.Update{
		{{Add: true, U: 0, V: 2}, {Add: true, U: 1, V: 3}},
		{{U: 0, V: 2}, {Add: true, U: 4, V: 6}},
		nil, // placeholder: forest-breaking removal picked below
		{{Add: true, U: 0, V: 2}},
	}
	var deltas []*core.GenDelta
	for i, batch := range batches {
		if batch == nil {
			cur := d.Scheme()
			for e := 0; e < cur.Graph().M(); e++ {
				if cur.Forest.IsTreeEdge[e] {
					batch = []core.Update{{U: cur.Graph().Edges[e].U, V: cur.Graph().Edges[e].V}}
					break
				}
			}
		}
		rep, delta, s, err := d.Commit(batch)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if delta == nil {
			t.Fatalf("batch %d: no delta", i)
		}
		if i == 2 && rep.Incremental {
			t.Fatalf("batch %d: tree-edge removal committed incrementally", i)
		}
		deltas = append(deltas, delta)
		schemes[s.Generation()] = s
	}
	return d, deltas, schemes
}

func writeLog(t testing.TB, path string, deltas []*core.GenDelta) *Log {
	t.Helper()
	l, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i, d := range deltas {
		if _, err := l.Append(d); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	return l
}

// assertSameLabels requires got to be want's generation with byte-identical
// vertex and edge label marshalings.
func assertSameLabels(t *testing.T, got, want *core.Scheme) {
	t.Helper()
	if got.Token() != want.Token() || got.Generation() != want.Generation() || got.Graph().M() != want.Graph().M() {
		t.Fatalf("scheme at (%#x, gen %d, m=%d), want (%#x, gen %d, m=%d)",
			got.Token(), got.Generation(), got.Graph().M(), want.Token(), want.Generation(), want.Graph().M())
	}
	for v := 0; v < want.N(); v++ {
		if !bytes.Equal(core.MarshalVertexLabel(got.VertexLabel(v)), core.MarshalVertexLabel(want.VertexLabel(v))) {
			t.Fatalf("gen %d: vertex %d label bytes diverge", want.Generation(), v)
		}
	}
	for e := 0; e < want.Graph().M(); e++ {
		if !bytes.Equal(core.MarshalEdgeLabel(got.EdgeLabel(e)), core.MarshalEdgeLabel(want.EdgeLabel(e))) {
			t.Fatalf("gen %d: edge %d label bytes diverge", want.Generation(), e)
		}
	}
}

// goldenRecords opens a golden log of buildGoldenRun and returns its four
// records (generations 2..5).
func goldenRecords(t *testing.T, path string) []Record {
	t.Helper()
	gl, err := Open(path)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	defer gl.Close()
	if first, last := gl.Bounds(); first != 2 || last != 5 {
		t.Fatalf("%s bounds = (%d, %d), want (2, 5)", path, first, last)
	}
	recs, ok := gl.After(1)
	if !ok || len(recs) != 4 {
		t.Fatalf("%s: After(1) = %d records, ok=%v", path, len(recs), ok)
	}
	return recs
}

// TestGoldenLogCompatibility locks the on-disk record format: the fixed
// commit sequence must encode to the committed fixture bytes. The fixture
// and the legacy fixture must both decode and replay: generations 2 and 3
// onto a fresh build of the golden base graph, generation 4 as a full
// marker, generation 5 onto the primary's rebuilt generation 4, each to
// the primary's labels byte for byte.
func TestGoldenLogCompatibility(t *testing.T) {
	_, deltas, schemes := buildGoldenRun(t)
	if *updateGolden {
		tmp := filepath.Join(t.TempDir(), "golden")
		l := writeLog(t, tmp, deltas)
		l.Close()
		data, err := os.ReadFile(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes, %d records)", goldenPath, len(data), len(deltas))
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (run with -update): %v", err)
	}
	tmp := filepath.Join(t.TempDir(), "golden")
	l := writeLog(t, tmp, deltas)
	defer l.Close()
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("log bytes diverge from %s (%d vs %d bytes): the record format changed — bump Version and regenerate with -update",
			goldenPath, len(got), len(want))
	}

	for _, path := range []string{goldenPath, legacyGoldenPath} {
		base, err := core.NewDynamic(workload.Petersen(), core.Params{MaxFaults: 2, Kind: core.KindDetNetFind})
		if err != nil {
			t.Fatal(err)
		}
		replica := base.Scheme()
		for _, rec := range goldenRecords(t, path) {
			d, err := DecodeDelta(rec.Payload)
			if err != nil {
				t.Fatalf("%s: decode gen %d: %v", path, rec.Gen, err)
			}
			if rec.Gen == 4 {
				if !d.Full {
					t.Fatalf("%s: golden record 4 must be a full marker (delta=%+v)", path, d)
				}
				replica = schemes[4] // what a replica refetches
				continue
			}
			_, next, err := core.ApplyDelta(replica, d)
			if err != nil {
				t.Fatalf("%s: replay gen %d: %v", path, rec.Gen, err)
			}
			assertSameLabels(t, next, schemes[rec.Gen])
			replica = next
		}
	}
}

// TestLegacyMaskEvenSumChecked flips one even power sum in a legacy
// record's XOR mask: the mask is then no binary syndrome, and the replay
// must fail with ErrDeltaMismatch instead of producing a label.
func TestLegacyMaskEvenSumChecked(t *testing.T) {
	_, _, schemes := buildGoldenRun(t)
	d, err := DecodeDelta(goldenRecords(t, legacyGoldenPath)[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	words := schemes[1].Spec().Words()
	if len(d.DirtyXor) == 0 || len(d.DirtyXor[0]) != 2*words {
		t.Fatalf("legacy record has %d masks, want legacy masks of %d words", len(d.DirtyXor), 2*words)
	}
	if _, _, err := core.ApplyDelta(schemes[1], d); err != nil {
		t.Fatalf("legacy record does not replay: %v", err)
	}
	d.DirtyXor[0][1] ^= 1 << 7 // S_2 of level 0
	if _, _, err := core.ApplyDelta(schemes[1], d); !errors.Is(err, core.ErrDeltaMismatch) {
		t.Fatalf("mask with a flipped even sum: got %v, want ErrDeltaMismatch", err)
	}
}

// FuzzDecodeDelta feeds arbitrary payloads to the record decoder, seeded
// with every record of both golden logs: it must return ErrBadRecord or a
// delta, never panic, and re-encoding a decoded delta must be a fixed
// point of decode and encode (a legacy record's added labels re-encode in
// the current encoding; its masks are kept for ApplyDelta to convert).
func FuzzDecodeDelta(f *testing.F) {
	for _, path := range []string{goldenPath, legacyGoldenPath} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for p := data[headerLen:]; len(p) >= 8; {
			n := int(binary.LittleEndian.Uint32(p))
			f.Add(p[8 : 8+n])
			p = p[8+n:]
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		d, err := DecodeDelta(payload)
		if err != nil {
			if !errors.Is(err, ErrBadRecord) {
				t.Fatalf("decode error %v is not ErrBadRecord", err)
			}
			return
		}
		re := EncodeDelta(d)
		d2, err := DecodeDelta(re)
		if err != nil {
			t.Fatalf("re-encoded delta does not decode: %v", err)
		}
		if !bytes.Equal(EncodeDelta(d2), re) {
			t.Fatal("record re-encoding is not a fixed point")
		}
	})
}

// TestLogRoundTripAndReplay appends live deltas, reopens the file, and
// asserts the decoded records replay the primary's generations with
// byte-identical labels — the genlog reader contract.
func TestLogRoundTripAndReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := workload.ErdosRenyi(70, 8/70.0, true, rng)
	d, err := core.NewDynamic(g.Clone(), core.Params{MaxFaults: 3, Kind: core.KindRandRS, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	replica := d.Scheme()
	path := filepath.Join(t.TempDir(), "gen.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	for committed < 5 {
		var batch []core.Update
		cur := d.Scheme()
		for e := 0; e < cur.Graph().M() && len(batch) < 2; e++ {
			if !cur.Forest.IsTreeEdge[e] && rng.Intn(3) == 0 {
				batch = append(batch, core.Update{U: cur.Graph().Edges[e].U, V: cur.Graph().Edges[e].V})
			}
		}
		if len(batch) == 0 {
			continue
		}
		rep, delta, _, err := d.Commit(batch)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Incremental {
			t.Fatalf("non-tree removals %v fell back: %s", batch, rep.Reason)
		}
		if _, err := l.Append(delta); err != nil {
			t.Fatal(err)
		}
		committed++
	}
	l.Close()

	// Reopen (validates every checksum) and replay everything.
	l2, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if l2.Len() != committed {
		t.Fatalf("reopened log has %d records, want %d", l2.Len(), committed)
	}
	recs, ok := l2.After(replica.Generation())
	if !ok {
		t.Fatal("After(base gen) refused")
	}
	for _, rec := range recs {
		delta, err := DecodeDelta(rec.Payload)
		if err != nil {
			t.Fatalf("decode gen %d: %v", rec.Gen, err)
		}
		_, next, err := core.ApplyDelta(replica, delta)
		if err != nil {
			t.Fatalf("replay gen %d: %v", rec.Gen, err)
		}
		replica = next
	}
	primary := d.Scheme()
	if replica.Token() != primary.Token() || replica.Generation() != primary.Generation() {
		t.Fatalf("replayed to (%#x, %d), primary at (%#x, %d)",
			replica.Token(), replica.Generation(), primary.Token(), primary.Generation())
	}
	for e := 0; e < primary.Graph().M(); e++ {
		if !bytes.Equal(core.MarshalEdgeLabel(replica.EdgeLabel(e)), core.MarshalEdgeLabel(primary.EdgeLabel(e))) {
			t.Fatalf("edge %d label bytes diverge after replay", e)
		}
	}
}

// TestTornTailTruncated simulates a crash mid-append: a torn trailing
// record is dropped on reopen, intact records survive, and appending
// continues from the surviving generation.
func TestTornTailTruncated(t *testing.T) {
	_, deltas, _ := buildGoldenRun(t)
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, deltas[:2])
	l.Close()
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range []string{"header", "payload", "checksum"} {
		data := append([]byte(nil), whole...)
		switch cut {
		case "header":
			data = append(data, 0x99, 0x01) // 2 bytes of a next record header
		case "payload":
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:], 100) // claims 100 payload bytes
			data = append(data, hdr[:]...)
			data = append(data, bytes.Repeat([]byte{0xab}, 40)...) // only 40 present
		case "checksum":
			// Full-length final record with a wrong checksum: torn write
			// where the payload bytes landed but are garbage.
			payload := EncodeDelta(deltas[2])
			var hdr [8]byte
			binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:], 0xdeadbeef)
			data = append(data, hdr[:]...)
			data = append(data, payload...)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path)
		if err != nil {
			t.Fatalf("%s: reopen: %v", cut, err)
		}
		if l.Len() != 2 {
			t.Fatalf("%s: %d records survive, want 2", cut, l.Len())
		}
		if _, err := l.Append(deltas[2]); err != nil {
			t.Fatalf("%s: append after truncation: %v", cut, err)
		}
		if _, last := l.Bounds(); last != deltas[2].Gen {
			t.Fatalf("%s: last gen %d after re-append", cut, last)
		}
		l.Close()
	}
}

// TestMidFileCorruptionRejected asserts a checksum mismatch that is not the
// final record fails Open outright.
func TestMidFileCorruptionRejected(t *testing.T) {
	_, deltas, _ := buildGoldenRun(t)
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, deltas[:3])
	l.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	data[headerLen+recHeaderLen+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open(corrupt) = %v, want ErrCorrupt", err)
	}
}

// TestGenOrderEnforced asserts Append refuses gaps and stale records.
func TestGenOrderEnforced(t *testing.T) {
	_, deltas, _ := buildGoldenRun(t)
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, deltas[:1])
	defer l.Close()
	if _, err := l.Append(deltas[2]); !errors.Is(err, ErrGenOrder) {
		t.Fatalf("gap append = %v, want ErrGenOrder", err)
	}
	if _, err := l.Append(deltas[0]); !errors.Is(err, ErrGenOrder) {
		t.Fatalf("duplicate append = %v, want ErrGenOrder", err)
	}
}

// TestAfterBelowCoverage asserts a subscriber older than the log's first
// record is refused (it must refetch a snapshot).
func TestAfterBelowCoverage(t *testing.T) {
	_, deltas, _ := buildGoldenRun(t)
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, deltas[2:]) // log starts at the gen-4 full marker
	defer l.Close()
	if _, ok := l.After(1); ok {
		t.Fatal("After(1) served despite missing generations 2-3")
	}
	recs, ok := l.After(3)
	if !ok || len(recs) != 2 {
		t.Fatalf("After(3) = (%d, %v), want 2 records", len(recs), ok)
	}
	recs, ok = l.After(99)
	if !ok || len(recs) != 0 {
		t.Fatalf("After(99) = (%d, %v), want empty ok", len(recs), ok)
	}
}

// TestOversizedDeltaDemoted asserts a delta above MaxRecordBytes lands as a
// full marker rather than an unbounded record.
func TestOversizedDeltaDemoted(t *testing.T) {
	huge := &core.GenDelta{
		PrevGen: 1, Gen: 2, Token: 42,
		Ops:      []core.Update{{Add: true, U: 0, V: 1}},
		DirtyIdx: []int{0},
		DirtyXor: [][]uint64{make([]uint64, (MaxRecordBytes/8)+1024)},
	}
	path := filepath.Join(t.TempDir(), "gen.log")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rec, err := l.Append(huge)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Payload) > 1024 {
		t.Fatalf("oversized delta not demoted (%d-byte record)", len(rec.Payload))
	}
	d, err := DecodeDelta(rec.Payload)
	if err != nil || !d.Full || d.Gen != 2 || d.Token != 42 {
		t.Fatalf("demoted record = %+v, %v; want full marker at gen 2", d, err)
	}
}

// TestTornWriteFailpointRecovers injects a torn write through the
// "genlog.append" failpoint — a strict prefix of the record lands on disk
// and Append fails — then asserts Open truncates the torn tail and the
// log accepts the same delta again: the crash-recovery path under fault
// injection matches the hand-corrupted fixtures above.
func TestTornWriteFailpointRecovers(t *testing.T) {
	defer faultinject.Disarm()
	_, deltas, _ := buildGoldenRun(t)
	path := filepath.Join(t.TempDir(), "gen.log")
	l := writeLog(t, path, deltas[:2])

	r := faultinject.New(11)
	if err := r.Set("genlog.append", "torn-write"); err != nil {
		t.Fatal(err)
	}
	faultinject.Arm(r)
	if _, err := l.Append(deltas[2]); err == nil {
		t.Fatal("append under torn-write failpoint succeeded")
	}
	faultinject.Disarm()
	l.Close()

	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after torn write: %v", err)
	}
	defer reopened.Close()
	if reopened.Len() != 2 {
		t.Fatalf("%d records survive torn write, want 2", reopened.Len())
	}
	st2, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Size() >= st.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", st.Size(), st2.Size())
	}
	if _, err := reopened.Append(deltas[2]); err != nil {
		t.Fatalf("re-append after recovery: %v", err)
	}
	if _, last := reopened.Bounds(); last != deltas[2].Gen {
		t.Fatalf("last gen %d after re-append, want %d", last, deltas[2].Gen)
	}
}
