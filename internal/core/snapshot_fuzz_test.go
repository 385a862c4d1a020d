package core

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// FuzzUnmarshalScheme feeds arbitrary bytes to the snapshot decoder:
// corrupted input must produce an error — never a panic or a huge
// allocation — and any accepted input must be canonical (re-marshaling the
// loaded scheme reproduces the input bytes exactly). For version-3/4 input
// the offsets tables and arena bounds are validated at load; label bytes
// are only reached lazily, so the harness additionally touches every label
// of an accepted scheme: a corrupt arena slot must decode to a poisoned
// label (which every query rejects), never panic or over-allocate. The
// seeds are small, so that the fuzzer's time goes to mutating them rather
// than to gathering their baseline coverage: Petersen schemes with f = 1 of every kind at v1–v3 (written by the
// test-only legacy writer) and at the current version, plus a dynamic one
// at v2, v3 and the current version, each whole and cut in half. The
// large fixtures under testdata/legacy stay with TestSnapshotVersionMatrix
// and TestLegacyWriterReproducesFixtures, which load every one of them.
func FuzzUnmarshalScheme(f *testing.F) {
	add := func(s *Scheme, versions ...byte) {
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		for _, v := range versions {
			data := marshalLegacy(s, v)
			f.Add(data)
			f.Add(data[:len(data)/2])
		}
	}
	for _, p := range []Params{
		{MaxFaults: 1},
		{MaxFaults: 1, Kind: KindDetGreedy},
		{MaxFaults: 1, Kind: KindRandRS, Seed: 7},
		{MaxFaults: 1, Kind: KindAGM, Seed: 7},
	} {
		s, err := Build(workload.Petersen(), p)
		if err != nil {
			f.Fatal(err)
		}
		add(s, 1, 2, 3)
	}
	d, err := NewDynamic(workload.Petersen(), Params{MaxFaults: 1})
	if err != nil {
		f.Fatal(err)
	}
	if _, _, _, err := d.Commit([]Update{{Add: true, U: 0, V: 2}, {U: 5, V: 7}}); err != nil {
		f.Fatal(err)
	}
	add(d.Scheme(), 2, 3)
	f.Add([]byte{})
	f.Add([]byte("FTCSNP"))
	f.Add([]byte("FTCSNP\x01"))
	f.Add([]byte("FTCSNP\x02"))
	f.Add([]byte("FTCSNP\x03"))
	f.Add([]byte("FTCSNP\x04"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := UnmarshalScheme(data)
		if err != nil {
			return
		}
		// Touching every label must never panic, whatever the arena holds.
		for v := 0; v < s.N(); v++ {
			_ = s.VertexLabel(v)
		}
		for e := 0; e < s.Graph().M(); e++ {
			_ = s.EdgeLabel(e)
		}
		_ = s.MaxEdgeLabelBits()
		re, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted snapshot cannot re-marshal: %v", err)
		}
		if data[6] == SnapshotVersion {
			// Current-version input must be canonical.
			if !bytes.Equal(re, data) {
				t.Fatalf("non-canonical snapshot accepted")
			}
			return
		}
		// Legacy versions re-marshal at the current version; that upgrade
		// must be a fixed point (load → save → load → save is stable).
		s2, err := UnmarshalScheme(re)
		if err != nil {
			t.Fatalf("upgraded snapshot does not load: %v", err)
		}
		re2, err := s2.MarshalBinary()
		if err != nil {
			t.Fatalf("upgraded snapshot cannot re-marshal: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("snapshot upgrade is not a fixed point")
		}
	})
}
