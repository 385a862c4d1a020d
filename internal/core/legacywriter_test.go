package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/gf"
)

// marshalLegacy writes s as a version-1, -2 or -3 snapshot, the way the
// writers of earlier builds did: v1 and v2 store each label length-prefixed
// (v1 without the generation and aux-slack fields), v3 stores the
// structure-of-arrays arena, and every edge label is a legacy 'E' label
// whose Reed–Solomon levels carry all 2k power sums (S_2j = S_j²). It is
// the reader's test counterpart: the fixtures under testdata/legacy are
// its output, byte for byte.
func marshalLegacy(s *Scheme, version byte) []byte {
	g := s.g
	b := append(snapshotMagic[:len(snapshotMagic):len(snapshotMagic)], version)
	b = binary.LittleEndian.AppendUint32(b, uint32(g.N()))
	b = binary.LittleEndian.AppendUint32(b, uint32(g.M()))
	for _, e := range g.Edges {
		b = binary.LittleEndian.AppendUint32(b, uint32(e.U))
		b = binary.LittleEndian.AppendUint32(b, uint32(e.V))
	}
	b = binary.LittleEndian.AppendUint64(b, s.token)
	b = binary.LittleEndian.AppendUint32(b, uint32(s.params.MaxFaults))
	b = append(b, byte(s.spec.Kind))
	for _, v := range []int{s.spec.K, s.spec.Levels, s.spec.Reps, s.spec.Buckets} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(s.spec.Seed))
	if version >= 2 {
		b = binary.LittleEndian.AppendUint64(b, s.gen)
		b = binary.LittleEndian.AppendUint32(b, uint32(s.params.AuxSlack))
	}
	if s.Hierarchy == nil {
		b = binary.LittleEndian.AppendUint32(b, 0)
	} else {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Hierarchy.Levels)))
		for _, level := range s.Hierarchy.Levels {
			b = binary.LittleEndian.AppendUint32(b, uint32(len(level)))
			for _, e := range level {
				b = binary.LittleEndian.AppendUint32(b, uint32(e))
			}
		}
	}
	section := func(b []byte, labels [][]byte) []byte {
		if version <= 2 {
			for _, l := range labels {
				b = binary.LittleEndian.AppendUint32(b, uint32(len(l)))
				b = append(b, l...)
			}
			return b
		}
		var off uint64
		b = binary.LittleEndian.AppendUint64(b, off)
		for _, l := range labels {
			off += uint64(len(l))
			b = binary.LittleEndian.AppendUint64(b, off)
		}
		return append(b, bytes.Join(labels, nil)...)
	}
	verts := make([][]byte, g.N())
	for v := range verts {
		verts[v] = MarshalVertexLabel(s.VertexLabel(v))
	}
	edges := make([][]byte, g.M())
	for e := range edges {
		edges[e] = legacyEdgeLabel(s.EdgeLabel(e))
	}
	return section(section(b, verts), edges)
}

// legacyEdgeLabel encodes l as a legacy 'E' label: a Reed–Solomon
// level's k stored sums S_1, S_3, …, S_2k−1 expand to all 2k, with
// S_2j = S_j²; an AGM payload is written as it is.
func legacyEdgeLabel(l EdgeLabel) []byte {
	if l.Spec.Kind != KindAGM {
		k := l.Spec.LevelWords()
		full := make([]uint64, 0, 2*len(l.Out))
		for lvl := 0; lvl < l.Spec.Levels; lvl++ {
			stored := l.Out[lvl*k : (lvl+1)*k]
			syn := make([]uint64, 2*k)
			for i := range syn {
				if i%2 == 0 {
					syn[i] = stored[i/2]
				} else {
					syn[i] = gf.Sqr(syn[i/2])
				}
			}
			full = append(full, syn...)
		}
		l.Out = full
	}
	b := MarshalEdgeLabel(l)
	b[0] = legacyEdgeMagic
	return b
}

// legacySnapshots are the repository's v1–v3 fixtures, written by the
// legacy snapshot writer (2k power sums per Reed–Solomon level) for every
// scheme kind, a two-level hierarchy and a dynamic scheme.
const legacySnapshots = "../../testdata/legacy/*.ftcsnap"

// TestLegacyWriterReproducesFixtures rewrites every v1–v3 fixture under
// testdata/legacy at its own version from its own load: the writer must
// reproduce the file byte for byte, so the snapshots it makes for the
// fuzzer's seeds are what earlier builds wrote.
func TestLegacyWriterReproducesFixtures(t *testing.T) {
	paths, err := filepath.Glob(legacySnapshots)
	if err != nil || len(paths) == 0 {
		t.Fatalf("no legacy snapshot fixtures at %s (%v)", legacySnapshots, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		version := data[len(snapshotMagic)]
		if version < 1 || version > 3 {
			t.Fatalf("%s: version %d is not a legacy version", path, version)
		}
		s, err := UnmarshalScheme(bytes.Clone(data))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if got := marshalLegacy(s, version); !bytes.Equal(got, data) {
			t.Fatalf("%s: legacy writer output differs (%d bytes, fixture %d)", path, len(got), len(data))
		}
	}
}
