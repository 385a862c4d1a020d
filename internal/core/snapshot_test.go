package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// snapshotKinds is one small build per scheme kind, shared by the
// round-trip tests. AGM uses full-support repetitions so connectivity
// comparisons cannot hit the whp failure mode.
func snapshotKinds(t *testing.T, g *graph.Graph, f int) map[string]*Scheme {
	t.Helper()
	out := map[string]*Scheme{}
	for name, p := range map[string]Params{
		"det-netfind": {MaxFaults: f, Kind: KindDetNetFind},
		"det-greedy":  {MaxFaults: f, Kind: KindDetGreedy},
		"rand-rs":     {MaxFaults: f, Kind: KindRandRS, Seed: 11},
		"agm":         {MaxFaults: f, Kind: KindAGM, Seed: 11, AGMReps: 4 * f * 6},
	} {
		s, err := Build(g, p)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

func TestSnapshotRoundTripAllKinds(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.ErdosRenyi(60, 0.08, true, rng)
	const f = 3
	for name, s := range snapshotKinds(t, g, f) {
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		// Per-label marshalings must be byte-identical.
		for v := 0; v < g.N(); v++ {
			if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
				t.Fatalf("%s: vertex %d label differs after round trip", name, v)
			}
		}
		for e := 0; e < g.M(); e++ {
			if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabel(e)), MarshalEdgeLabel(loaded.EdgeLabel(e))) {
				t.Fatalf("%s: edge %d label differs after round trip", name, e)
			}
		}
		// Snapshot of the loaded scheme must reproduce the original bytes
		// (the canonical-encoding property the fuzz target also enforces).
		data2, err := loaded.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", name, err)
		}
		if !bytes.Equal(data, data2) {
			t.Fatalf("%s: snapshot is not canonical: re-marshal differs", name)
		}
		// Scheme metadata survives.
		if loaded.Spec() != s.Spec() || loaded.Token() != s.Token() ||
			loaded.MaxFaults() != s.MaxFaults() || loaded.N() != s.N() {
			t.Fatalf("%s: scheme metadata differs after round trip", name)
		}
		// Connected answers match the original scheme and the BFS oracle.
		qrng := rand.New(rand.NewSource(17))
		for q := 0; q < 200; q++ {
			faults := workload.TreeEdgeFaults(g, s.Forest, 1+qrng.Intn(f), qrng)
			fl := make([]EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = loaded.EdgeLabel(e)
			}
			sv, tv := qrng.Intn(g.N()), qrng.Intn(g.N())
			got, err := Connected(loaded.VertexLabel(sv), loaded.VertexLabel(tv), fl)
			if err != nil {
				t.Fatalf("%s: query on loaded scheme: %v", name, err)
			}
			if want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv); got != want {
				t.Fatalf("%s: loaded scheme answered %v, oracle says %v", name, got, want)
			}
		}
	}
}

func TestSnapshotTreeOnlyAndEmptyGraphs(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"tree", workload.Caterpillar(6, 2)},
		{"empty", graph.New(0)},
		{"isolated", graph.New(5)},
	} {
		s, err := Build(tc.g, Params{MaxFaults: 2})
		if err != nil {
			t.Fatalf("%s: build: %v", tc.name, err)
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", tc.name, err)
		}
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("%s: unmarshal: %v", tc.name, err)
		}
		if loaded.N() != tc.g.N() || loaded.Graph().M() != tc.g.M() {
			t.Fatalf("%s: wrong shape after load", tc.name)
		}
	}
}

// TestLazyArenaCorruptLabelFailsClosed flips bits inside the v3 label
// arena: the load itself still succeeds (label bytes are lazily decoded by
// design), but every query that touches a corrupted label must fail with
// ErrLabelMismatch — never panic, and never answer from garbage.
func TestLazyArenaCorruptLabelFailsClosed(t *testing.T) {
	g := workload.Petersen()
	s, err := Build(g, Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalScheme(append([]byte(nil), data...))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt two label slots in place through the zero-copy alias, before
	// either is touched: the magic byte of the last edge label (decode
	// failure) and the stored token of vertex 1 (header disagreement).
	// Payload-word corruption is undetectable by construction — labels
	// carry no checksum in any wire version — so the fail-closed promise is
	// specifically about structurally bad or mis-tokened label bytes.
	a := loaded.lazy
	a.edgeBytes[a.edgeOff[g.M()-1]] ^= 0xFF
	a.vertBytes[a.vertOff[1]+1] ^= 0xFF
	lastEdge := loaded.EdgeLabel(g.M() - 1)
	if lastEdge.Token == loaded.Token() {
		t.Fatal("corrupt edge label decoded with a valid token")
	}
	badVert := loaded.VertexLabel(1)
	if badVert.Token == loaded.Token() {
		t.Fatal("corrupt vertex label decoded with a valid token")
	}
	if lastEdge.Token == badVert.Token {
		t.Fatal("distinct corrupt label slots share a poison token")
	}
	if _, err := Connected(loaded.VertexLabel(0), loaded.VertexLabel(2), []EdgeLabel{lastEdge}); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("query over corrupt edge label: got %v, want ErrLabelMismatch", err)
	}
	if _, err := Connected(loaded.VertexLabel(0), badVert, nil); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("query over corrupt vertex label: got %v, want ErrLabelMismatch", err)
	}
	// Uncorrupted labels in the same snapshot stay fully usable.
	if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(3)), MarshalVertexLabel(loaded.VertexLabel(3))) {
		t.Fatal("clean vertex label differs under a corrupted neighbor")
	}
	if ok, err := Connected(loaded.VertexLabel(0), loaded.VertexLabel(2), []EdgeLabel{loaded.EdgeLabel(0)}); err != nil {
		t.Fatalf("clean-label query failed: %v (connected=%v)", err, ok)
	}
}

// TestLegacySnapshotCorruptLabelFailsClosed: v1 and v2 snapshots load
// through the same lazy arena as v3 and v4, so a label with a corrupt
// token does not fail the load. It decodes to a poisoned label, every
// query that touches it fails with ErrLabelMismatch, and the clean labels
// of the same snapshot keep answering.
func TestLegacySnapshotCorruptLabelFailsClosed(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	vertex0 := MarshalVertexLabel(s.VertexLabel(0))
	for _, version := range []byte{1, 2} {
		data := marshalLegacy(s, version)
		i := bytes.Index(data, vertex0)
		if i < 0 {
			t.Fatalf("v%d: vertex 0's label not found in the snapshot", version)
		}
		data[i+1] ^= 0xFF // the first byte of vertex 0's stored token
		loaded, err := UnmarshalScheme(data)
		if err != nil {
			t.Fatalf("v%d: load with one corrupt label: %v", version, err)
		}
		if _, err := Connected(loaded.VertexLabel(0), loaded.VertexLabel(3), nil); !errors.Is(err, ErrLabelMismatch) {
			t.Fatalf("v%d: probe of the corrupt vertex: got %v, want ErrLabelMismatch", version, err)
		}
		ok, err := Connected(loaded.VertexLabel(1), loaded.VertexLabel(3), []EdgeLabel{loaded.EdgeLabel(0)})
		if err != nil || !ok {
			t.Fatalf("v%d: probe of two clean vertices: connected=%v, err=%v", version, ok, err)
		}
	}
}

// TestLazyArenaConcurrentFirstTouch races many goroutines into the same
// cold arena (run under -race in CI): every decode must agree with the
// built scheme's label.
func TestLazyArenaConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g := workload.ErdosRenyi(120, 0.06, true, rng)
	s, err := Build(g, Params{MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < g.M(); i++ {
				e := (i + w*7) % g.M()
				if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabel(e)), MarshalEdgeLabel(loaded.EdgeLabel(e))) {
					errc <- fmt.Errorf("worker %d: edge %d decode disagrees", w, e)
					return
				}
				v := (i + w*3) % g.N()
				if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
					errc <- fmt.Errorf("worker %d: vertex %d decode disagrees", w, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if _, verts := loaded.LazyLabels(); verts != g.N() {
		t.Fatalf("vertex labels not fully resident after touch-all (verts=%d)", verts)
	}
}

// TestLazyArenaKeepsNoEdgeLabel pins that a lazily loaded scheme retains
// no decoded edge label: two reads of one edge are equal on the wire, but
// each is a fresh decode whose payload shares no storage with the other.
func TestLazyArenaKeepsNoEdgeLabel(t *testing.T) {
	s, err := Build(workload.Petersen(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < loaded.Graph().M(); e++ {
		first, second := loaded.EdgeLabel(e), loaded.EdgeLabel(e)
		if !bytes.Equal(MarshalEdgeLabel(first), MarshalEdgeLabel(second)) {
			t.Fatalf("edge %d: two reads marshal differently", e)
		}
		if len(first.Out) == 0 || &first.Out[0] == &second.Out[0] {
			t.Fatalf("edge %d: two reads share their Out storage (len %d)", e, len(first.Out))
		}
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	g := workload.Petersen()
	s, err := Build(g, Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := UnmarshalScheme(nil); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("nil input: got %v, want ErrBadSnapshot", err)
	}
	if _, err := UnmarshalScheme(data[:len(data)/2]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := UnmarshalScheme(append(append([]byte(nil), data...), 0)); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("trailing byte: got %v, want ErrBadSnapshot", err)
	}

	bad := append([]byte(nil), data...)
	bad[0] ^= 0xFF
	if _, err := UnmarshalScheme(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad magic: got %v, want ErrBadSnapshot", err)
	}

	// A bumped version byte must fail with ErrSnapshotVersion — the
	// contract that makes silent wire-format drift impossible.
	bad = append([]byte(nil), data...)
	bad[len(snapshotMagic)] = SnapshotVersion + 1
	if _, err := UnmarshalScheme(bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: got %v, want ErrSnapshotVersion", err)
	}

	// Flipping a bit in the token must be caught by the fingerprint check.
	tokenOff := len(snapshotMagic) + 1 + 4 + 4 + 8*g.M()
	bad = append([]byte(nil), data...)
	bad[tokenOff] ^= 1
	if _, err := UnmarshalScheme(bad); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("token flip: got %v, want ErrBadSnapshot", err)
	}
}
