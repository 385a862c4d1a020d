package core

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/workload"
)

// legacySnapshots are the repository's v1–v3 fixtures, written by the
// legacy snapshot writer (2k power sums per Reed–Solomon level) for every
// scheme kind, a two-level hierarchy and a dynamic scheme.
const legacySnapshots = "../../testdata/legacy/*.ftcsnap"

// FuzzUnmarshalScheme feeds arbitrary bytes to the snapshot decoder:
// corrupted input must produce an error — never a panic or a huge
// allocation — and any accepted input must be canonical (re-marshaling the
// loaded scheme reproduces the input bytes exactly). For version-3/4 input
// the offsets tables and arena bounds are validated at load; label bytes
// are only reached lazily, so the harness additionally touches every label
// of an accepted scheme: a corrupt arena slot must decode to a poisoned
// label (which every query rejects), never panic or over-allocate. The
// seeds are the legacy fixtures and current-version snapshots, whole and
// cut in half.
func FuzzUnmarshalScheme(f *testing.F) {
	paths, err := filepath.Glob(legacySnapshots)
	if err != nil || len(paths) == 0 {
		f.Fatalf("no legacy snapshot fixtures at %s (%v)", legacySnapshots, err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, p := range []Params{
		{MaxFaults: 1},
		{MaxFaults: 2, Kind: KindRandRS, Seed: 7},
		{MaxFaults: 1, Kind: KindAGM, Seed: 7},
	} {
		s, err := Build(workload.Petersen(), p)
		if err != nil {
			f.Fatal(err)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
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
