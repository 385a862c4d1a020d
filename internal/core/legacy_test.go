package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"testing"

	"repro/internal/workload"
)

// legacyV3 loads testdata/legacy/<name>_v3.ftcsnap, a snapshot the legacy
// writer produced with 2k power sums per Reed–Solomon level, from a copy
// of the file (the lazy arena aliases its input).
func legacyV3(tb testing.TB, name string) *Scheme {
	tb.Helper()
	data, err := os.ReadFile("../../testdata/legacy/" + name + "_v3.ftcsnap")
	if err != nil {
		tb.Fatal(err)
	}
	s, err := UnmarshalScheme(data)
	if err != nil {
		tb.Fatalf("%s v3: %v", name, err)
	}
	return s
}

// legacyEdgeBytes returns edge e's label exactly as the legacy writer
// encoded it: magic 'E', 2k words per Reed–Solomon level.
func legacyEdgeBytes(tb testing.TB, name string, e int) []byte {
	tb.Helper()
	a := legacyV3(tb, name).lazy
	return bytes.Clone(a.edgeBytes[a.edgeOff[e]:a.edgeOff[e+1]])
}

// twoLevelEdge is an edge of the det-netfind-2level fixture whose level-1
// segment is nonzero, so converting it exercises the second level.
const twoLevelEdge = 26

// overflowingEdgeLabel is a hand-made edge label whose spec fields, read as
// raw u32s, make the payload-length product wrap to 65,536 words: with
// x = 4,294,901,761 and y = 2,147,516,416, 2·x·y ≡ 2^16 (mod 2^64). A
// Reed–Solomon kind carries them as K and Levels (2·Levels·K words in the
// legacy layout), AGM as Reps and Buckets (2·Reps·Buckets). 512 KiB of
// payload follow, so only the spec bound can refuse the label.
func overflowingEdgeLabel(magic byte, kind Kind) []byte {
	const x, y = 4294901761, 2147516416
	k, levels, reps, buckets := uint32(x), uint32(y), uint32(0), uint32(0)
	if kind == KindAGM {
		k, levels, reps, buckets = 0, 0, x, y
	}
	b := []byte{magic}
	b = binary.LittleEndian.AppendUint64(b, 0x5eed) // token
	b = binary.LittleEndian.AppendUint32(b, 2)      // fault budget
	b = append(b, byte(kind))
	for _, v := range []uint32{k, levels, reps, buckets} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, 0)     // seed
	b = append(b, make([]byte, 2*12)...)           // parent and child ancestry
	b = binary.LittleEndian.AppendUint32(b, 1<<16) // payload words
	return append(b, bytes.Repeat([]byte{0xA5}, 8<<16)...)
}

// TestUnmarshalEdgeLabelRejectsOverflowingSpec: a label whose spec fields
// overflow the payload-length product must be refused. Before the fields
// were bounded, the legacy Reed–Solomon case decoded, compiled into a fault
// set, and panicked in Connected with a negative slice bound.
func TestUnmarshalEdgeLabelRejectsOverflowingSpec(t *testing.T) {
	for _, tc := range []struct {
		magic byte
		kind  Kind
	}{
		{legacyEdgeMagic, KindDetNetFind},
		{legacyEdgeMagic, KindAGM},
		{edgeMagic, KindAGM},
	} {
		_, err := UnmarshalEdgeLabel(overflowingEdgeLabel(tc.magic, tc.kind))
		if !errors.Is(err, ErrBadLabel) {
			t.Fatalf("magic %q kind %v: got %v, want ErrBadLabel", tc.magic, tc.kind, err)
		}
	}
}

// TestLegacyLabelEvenSumChecked converts a real legacy label with two
// levels, then flips one even power sum of its second level: the label
// decoder must refuse it with ErrBadLabel, and a lazily loaded v3 arena
// must poison it so that queries fail with ErrLabelMismatch.
func TestLegacyLabelEvenSumChecked(t *testing.T) {
	const name = "det-netfind-2level"
	raw := legacyEdgeBytes(t, name, twoLevelEdge)
	if raw[0] != legacyEdgeMagic {
		t.Fatalf("fixture label begins %#x, want the legacy magic", raw[0])
	}
	l, err := UnmarshalEdgeLabel(raw)
	if err != nil {
		t.Fatalf("legacy label: %v", err)
	}
	k := l.Spec.K
	if l.Spec.Levels != 2 || len(l.Out) != 2*k || len(raw) != edgeHeaderLen+8*4*k {
		t.Fatalf("legacy label shape: levels %d, %d words from %d bytes", l.Spec.Levels, len(l.Out), len(raw))
	}
	upper := false
	for lvl := 0; lvl < 2; lvl++ {
		for j := 0; j < k; j++ {
			w := binary.LittleEndian.Uint64(raw[edgeHeaderLen+8*(lvl*2*k+2*j):])
			if l.Out[lvl*k+j] != w {
				t.Fatalf("level %d: S_%d converted to %#x, legacy word %#x", lvl, 2*j+1, l.Out[lvl*k+j], w)
			}
			upper = upper || (lvl == 1 && w != 0)
		}
	}
	if !upper {
		t.Fatal("fixture edge has an all-zero second level; pick another")
	}

	// S_2 of level 1 is word 2k+1 of the legacy payload.
	evenOff := edgeHeaderLen + 8*(2*k+1)
	bad := bytes.Clone(raw)
	bad[evenOff] ^= 0x10
	if _, err := UnmarshalEdgeLabel(bad); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("flipped even sum: got %v, want ErrBadLabel", err)
	}

	s := legacyV3(t, name)
	a := s.lazy
	a.edgeBytes[int(a.edgeOff[twoLevelEdge])+evenOff] ^= 0x10
	poisoned := s.EdgeLabel(twoLevelEdge)
	if poisoned.Token == s.Token() {
		t.Fatal("lazy legacy label with a flipped even sum decoded with the scheme token")
	}
	if _, err := Connected(s.VertexLabel(0), s.VertexLabel(1), []EdgeLabel{poisoned}); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("query over the poisoned label: got %v, want ErrLabelMismatch", err)
	}
}

// TestMarshalBinarySizedExactly: the snapshot writer sizes its output
// before writing, for every source of labels — a build, a v5 load (arenas
// copied), and a v4, a v3 and a v1 load (labels re-encoded) — its vertex
// slots hold exactly the standalone label encodings, its edge slots the
// standalone encoding or, for exactly the non-tree edges of a Petersen
// graph, the short form, and a legacy load saves as v5 with the labels a
// v5 load decodes to.
func TestMarshalBinarySizedExactly(t *testing.T) {
	built, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	v5, err := built.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	lazy5, err := UnmarshalScheme(v5)
	if err != nil {
		t.Fatal(err)
	}
	// Appending in place writes exactly the standalone encodings. In the
	// Petersen graph every leaf of the spanning tree has two non-tree
	// edges, so no tree edge's payload is zero and every tree label is in
	// full.
	a := lazy5.lazy
	for v := 0; v < built.N(); v++ {
		if !bytes.Equal(a.vertBytes[a.vertOff[v]:a.vertOff[v+1]], MarshalVertexLabel(built.VertexLabel(v))) {
			t.Fatalf("vertex %d: snapshot slot differs from MarshalVertexLabel", v)
		}
	}
	for e := 0; e < built.Graph().M(); e++ {
		slot, l := a.edgeBytes[a.edgeOff[e]:a.edgeOff[e+1]], built.EdgeLabel(e)
		want := MarshalEdgeLabel(l)
		if !built.Forest.IsTreeEdge[e] {
			want = binary.LittleEndian.AppendUint32(nil, l.Child.Pre)
		}
		if !bytes.Equal(slot, want) {
			t.Fatalf("edge %d (tree edge %v): snapshot slot of %d bytes, want %d", e, built.Forest.IsTreeEdge[e], len(slot), len(want))
		}
	}
	v1, err := os.ReadFile("../../testdata/legacy/rand-rs_v1.ftcsnap")
	if err != nil {
		t.Fatal(err)
	}
	lazy1, err := UnmarshalScheme(v1)
	if err != nil {
		t.Fatal(err)
	}
	v4, err := os.ReadFile("../../testdata/legacy/agm_v4.ftcsnap")
	if err != nil {
		t.Fatal(err)
	}
	lazy4, err := UnmarshalScheme(v4)
	if err != nil {
		t.Fatal(err)
	}
	lazy3 := legacyV3(t, "det-netfind-2level")
	for name, s := range map[string]*Scheme{"built": built, "lazy v5": lazy5, "lazy v4": lazy4, "lazy v3": lazy3, "lazy v1": lazy1} {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(data) != len(data) {
			t.Fatalf("%s: wrote %d bytes into a %d-byte buffer", name, len(data), cap(data))
		}
		if data[len(snapshotMagic)] != SnapshotVersion {
			t.Fatalf("%s: wrote version %d", name, data[len(snapshotMagic)])
		}
		re, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("%s: saved snapshot does not load: %v", name, err)
		}
		for e := 0; e < s.Graph().M(); e++ {
			if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabel(e)), MarshalEdgeLabel(re.EdgeLabel(e))) {
				t.Fatalf("%s: edge %d differs after save and load", name, e)
			}
		}
	}
}

// TestMarshalBinaryBoundsHostileSpec: a v3 snapshot whose header carries a
// spec its labels do not match (the token is no secret, so a sender can
// make it fingerprint correctly) loads lazily with every edge label
// poisoned. Re-encoding it must size its buffer by the arena it holds, not
// by the claimed spec's m·Words() words.
func TestMarshalBinaryBoundsHostileSpec(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 1})
	if err != nil {
		t.Fatal(err)
	}
	hostile := *s
	hostile.spec.K = 1 << 16
	hostile.token = hostile.computeToken(hostile.g)
	data := marshalLegacy(&hostile, 3)
	loaded, err := UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	if l := loaded.EdgeLabel(0); l.Token == loaded.Token() {
		t.Fatal("an edge label disagreeing with the header spec decoded with the scheme token")
	}
	out, err := loaded.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if cap(out) > 2*len(data) {
		t.Fatalf("re-encoding a %d-byte snapshot sized a %d-byte buffer", len(data), cap(out))
	}
}
