package ftc

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden snapshot fixture under testdata/")

// persistTestEdges is a fixed 12-vertex graph (a Petersen graph plus a
// pendant path) used by the round-trip and golden tests: it has tree edges,
// non-tree edges, and a degree-1 tail, and the deterministic construction
// over it is reproducible bit-for-bit.
var persistTestEdges = [][2]int{
	{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // outer pentagon
	{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner pentagram
	{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
	{9, 10}, {10, 11}, // pendant path
}

func persistSchemes(t *testing.T, f int) map[string]*Scheme {
	t.Helper()
	out := map[string]*Scheme{}
	for name, opts := range map[string][]Option{
		"det-netfind": {WithMaxFaults(f), WithDeterministic()},
		"det-greedy":  {WithMaxFaults(f), WithGreedyNet()},
		"rand-rs":     {WithMaxFaults(f), WithRandomized(23)},
		"agm":         {WithMaxFaults(f), WithAGM(23), WithAGMReps(4 * f * 6)},
	} {
		s, err := New(12, persistTestEdges, opts...)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		out[name] = s
	}
	return out
}

// TestSaveLoadRoundTripAllKinds is the acceptance gate for the snapshot
// subsystem: for every scheme kind, Save→Load must yield byte-identical
// per-label marshalings and identical Connected answers.
func TestSaveLoadRoundTripAllKinds(t *testing.T) {
	const f = 3
	for name, s := range persistSchemes(t, f) {
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loaded, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: load: %v", name, err)
		}
		if loaded.N() != s.N() || loaded.M() != s.M() || loaded.MaxFaults() != s.MaxFaults() {
			t.Fatalf("%s: scheme shape differs after load", name)
		}
		if loaded.Stats() != s.Stats() {
			t.Fatalf("%s: stats differ after load: %+v vs %+v", name, loaded.Stats(), s.Stats())
		}
		for v := 0; v < s.N(); v++ {
			if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
				t.Fatalf("%s: vertex %d marshaling differs", name, v)
			}
		}
		for e := 0; e < s.M(); e++ {
			if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabelByIndex(e)), MarshalEdgeLabel(loaded.EdgeLabelByIndex(e))) {
				t.Fatalf("%s: edge %d marshaling differs", name, e)
			}
		}
		// FaultSets compiled from loaded labels answer like the original
		// scheme's and like the BFS oracle.
		g := s.Graph()
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 100; trial++ {
			var faults []int
			for len(faults) < 1+rng.Intn(f) {
				faults = append(faults, rng.Intn(s.M()))
			}
			fl := make([]EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = loaded.EdgeLabelByIndex(e)
			}
			fs, err := NewFaultSet(fl)
			if err != nil {
				t.Fatalf("%s: NewFaultSet over loaded labels: %v", name, err)
			}
			set := map[int]bool{}
			for _, e := range faults {
				set[e] = true
			}
			for q := 0; q < 10; q++ {
				sv, tv := rng.Intn(s.N()), rng.Intn(s.N())
				got, err := fs.Connected(loaded.VertexLabel(sv), loaded.VertexLabel(tv))
				if err != nil {
					t.Fatalf("%s: probe: %v", name, err)
				}
				orig, err := Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
				if err != nil {
					t.Fatalf("%s: original probe: %v", name, err)
				}
				if want := graph.ConnectedUnder(g, set, sv, tv); got != want || orig != want {
					t.Fatalf("%s: probe (%d,%d|%v): loaded=%v original=%v oracle=%v",
						name, sv, tv, faults, got, orig, want)
				}
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("got %v, want ErrBadSnapshot", err)
	}
}

// goldenPath is the checked-in current-version snapshot fixture. The test
// guarantees that any change to the wire format either keeps old snapshots
// loadable or bumps core.SnapshotVersion (making old readers fail loudly) —
// it can never silently re-interpret old bytes. goldenLegacyPaths are the
// fixtures of earlier versions, kept to prove old snapshots still load;
// they are never regenerated.
const goldenPath = "testdata/golden_v5.ftcsnap"

var goldenLegacyPaths = map[byte]string{
	1: "testdata/golden_v1.ftcsnap",
	2: "testdata/golden_v2.ftcsnap",
	3: "testdata/golden_v3.ftcsnap",
	4: "testdata/golden_v4.ftcsnap",
}

func goldenScheme(t *testing.T) *Scheme {
	t.Helper()
	s, err := New(12, persistTestEdges, WithMaxFaults(2), WithDeterministic())
	if err != nil {
		t.Fatalf("golden build: %v", err)
	}
	return s
}

func TestGoldenSnapshotCompatibility(t *testing.T) {
	if *updateGolden {
		s := goldenScheme(t)
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", goldenPath, buf.Len())
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with `go test -run TestGolden -update .`): %v", err)
	}
	if got := data[6]; got != core.SnapshotVersion {
		t.Fatalf("golden fixture carries version %d, build writes %d — check in a new fixture for the new version and keep this one loadable or rejected via ErrSnapshotVersion", got, core.SnapshotVersion)
	}
	loaded, err := Load(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("golden snapshot no longer loads — the wire format changed without bumping core.SnapshotVersion: %v", err)
	}
	// The deterministic construction is reproducible, so the fixture must
	// decode to exactly what a fresh build produces today.
	s := goldenScheme(t)
	for v := 0; v < s.N(); v++ {
		if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
			t.Fatalf("golden vertex %d label differs from fresh build", v)
		}
	}
	for e := 0; e < s.M(); e++ {
		if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabelByIndex(e)), MarshalEdgeLabel(loaded.EdgeLabelByIndex(e))) {
			t.Fatalf("golden edge %d label differs from fresh build", e)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), data) {
		t.Fatal("fresh snapshot differs from golden fixture bytes — wire format drifted; bump core.SnapshotVersion and regenerate")
	}
}

// TestGoldenLegacySnapshotsStillLoad pins the backward-compatibility
// promise for every historical wire version: the v1 fixture (written
// before the dynamic-network extension; generation and aux slack default
// to zero), the v2 fixture (length-prefixed label sections, copied into a
// label arena on load) and the v3 fixture (the arena layout itself), all
// with labels that carried 2k power sums per Reed–Solomon level, and the
// v4 fixture (every edge label in full), keep loading and decode to
// exactly what a fresh static build produces today, with the same Stats.
func TestGoldenLegacySnapshotsStillLoad(t *testing.T) {
	s := goldenScheme(t)
	for version, path := range goldenLegacyPaths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing legacy fixture: %v", err)
		}
		if got := data[6]; got != version {
			t.Fatalf("%s carries version %d, want %d", path, got, version)
		}
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("v%d snapshot no longer loads: %v", version, err)
		}
		if loaded.Generation() != 0 {
			t.Fatalf("v%d snapshot restored generation %d, want 0", version, loaded.Generation())
		}
		if loaded.Stats() != s.Stats() {
			t.Fatalf("v%d stats differ: %+v vs %+v", version, loaded.Stats(), s.Stats())
		}
		for v := 0; v < s.N(); v++ {
			if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
				t.Fatalf("v%d vertex %d label differs from fresh build", version, v)
			}
		}
		for e := 0; e < s.M(); e++ {
			if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabelByIndex(e)), MarshalEdgeLabel(loaded.EdgeLabelByIndex(e))) {
				t.Fatalf("v%d edge %d label differs from fresh build", version, e)
			}
		}
	}
}

// matrixSchemes rebuilds the schemes whose legacy snapshots live under
// testdata/legacy, written by the writers of earlier builds (labels with
// 2k power sums per Reed–Solomon level up to v3, every edge label in full
// at v4): every persistSchemes kind at f = 1, a det-netfind scheme whose
// hierarchy has two levels (ER n = 32, threshold 4), and a dynamic scheme
// at generation 2 with aux slack. versions lists the fixtures of each; v1
// cannot carry a dynamic scheme.
func matrixSchemes(t *testing.T) (schemes map[string]*Scheme, versions map[string][]byte) {
	t.Helper()
	schemes = persistSchemes(t, 1)
	versions = map[string][]byte{}
	for name := range schemes {
		versions[name] = []byte{1, 2, 3, 4}
	}

	g := workload.ErdosRenyi(32, 0.15, true, rand.New(rand.NewSource(1)))
	edges := make([][2]int, 0, g.M())
	for _, e := range g.Edges {
		edges = append(edges, [2]int{e.U, e.V})
	}
	twoLevel, err := New(32, edges, WithMaxFaults(2), WithDeterministic(),
		WithThreshold(func(f, m int) int { return 4 }))
	if err != nil {
		t.Fatal(err)
	}
	if depth := twoLevel.Stats().HierarchyDepth; depth != 2 {
		t.Fatalf("two-level scheme has %d levels", depth)
	}
	schemes["det-netfind-2level"] = twoLevel
	versions["det-netfind-2level"] = []byte{1, 2, 3, 4}

	nw, err := Open(12, persistTestEdges, WithMaxFaults(3), WithDeterministic())
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := nw.CommitBatch([][2]int{{0, 2}, {5, 11}}, nil); err != nil || !rep.Incremental {
		t.Fatalf("dynamic commit: %+v, %v", rep, err)
	}
	schemes["dynamic"] = nw.Snapshot()
	versions["dynamic"] = []byte{2, 3, 4}
	return schemes, versions
}

// TestSnapshotVersionMatrix is the cross-version equivalence gate: each
// legacy fixture, and the fresh build's own current-version snapshot, must
// load lazily to byte-identical per-label marshalings, identical
// generation and Stats, and saving any of them must write exactly the
// fresh build's snapshot (a loaded legacy arena is re-encoded, never
// copied). It also pins the laziness itself: loading a snapshot of any
// version decodes no labels until one is touched, Stats touches none, and
// the arena keeps the vertex labels it decoded (edge labels are never
// kept).
func TestSnapshotVersionMatrix(t *testing.T) {
	schemes, versions := matrixSchemes(t)
	for name, s := range schemes {
		var fresh bytes.Buffer
		if err := s.Save(&fresh); err != nil {
			t.Fatalf("%s: save: %v", name, err)
		}
		loads := map[byte]*LoadedScheme{}
		for _, version := range versions[name] {
			path := filepath.Join("testdata", "legacy", fmt.Sprintf("%s_v%d.ftcsnap", name, version))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing legacy fixture: %v", err)
			}
			if got := data[6]; got != version {
				t.Fatalf("%s carries version byte %d, want %d", path, got, version)
			}
			if loads[version], err = Load(bytes.NewReader(data)); err != nil {
				t.Fatalf("%s: load v%d: %v", name, version, err)
			}
		}
		var err error
		if loads[core.SnapshotVersion], err = Load(bytes.NewReader(fresh.Bytes())); err != nil {
			t.Fatalf("%s: load current version: %v", name, err)
		}
		for version, loaded := range loads {
			if lazy, verts := loaded.Inner().LazyLabels(); !lazy || verts != 0 {
				t.Fatalf("%s: v%d load not lazy-and-untouched (lazy=%v verts=%d)",
					name, version, lazy, verts)
			}
			if loaded.Stats() != s.Stats() {
				t.Fatalf("%s: v%d stats differ: %+v vs %+v", name, version, loaded.Stats(), s.Stats())
			}
			if _, verts := loaded.Inner().LazyLabels(); verts != 0 {
				t.Fatalf("%s: v%d Stats decoded %d vertex labels", name, version, verts)
			}
			if loaded.Generation() != s.Generation() {
				t.Fatalf("%s: v%d generation %d, want %d", name, version, loaded.Generation(), s.Generation())
			}
		}
		for v := 0; v < s.N(); v++ {
			want := MarshalVertexLabel(s.VertexLabel(v))
			for version, loaded := range loads {
				if !bytes.Equal(want, MarshalVertexLabel(loaded.VertexLabel(v))) {
					t.Fatalf("%s: v%d vertex %d label differs", name, version, v)
				}
			}
		}
		for e := 0; e < s.M(); e++ {
			want := MarshalEdgeLabel(s.EdgeLabelByIndex(e))
			for version, loaded := range loads {
				if !bytes.Equal(want, MarshalEdgeLabel(loaded.EdgeLabelByIndex(e))) {
					t.Fatalf("%s: v%d edge %d label differs", name, version, e)
				}
			}
		}
		for version, loaded := range loads {
			if _, verts := loaded.Inner().LazyLabels(); verts != s.N() {
				t.Fatalf("%s: v%d arena did not materialize its vertex labels on touch (verts=%d)", name, version, verts)
			}
			var saved bytes.Buffer
			if err := loaded.Save(&saved); err != nil {
				t.Fatalf("%s: save v%d load: %v", name, version, err)
			}
			if !bytes.Equal(saved.Bytes(), fresh.Bytes()) {
				t.Fatalf("%s: saving the v%d load differs from the fresh build's snapshot", name, version)
			}
		}
	}
}

var edgeLabelSink EdgeLabel

// TestEdgeLabelByIndexAllocs: a lazily loaded scheme decodes a fresh label
// per read, or rebuilds one from a short slot, which is already the
// caller's, so a read allocates once; a built scheme copies the payload it
// shares, also once, and that copy stays independent of the scheme.
func TestEdgeLabelByIndexAllocs(t *testing.T) {
	s, err := New(12, persistTestEdges, WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Inner().EdgeLabelsShared() || !s.Inner().EdgeLabelsShared() {
		t.Fatal("want a lazily loaded scheme and a built one")
	}
	// Edge 1 is a tree edge, stored in full; the first non-tree edge is
	// stored short.
	nonTree := slices.Index(s.Inner().Forest.IsTreeEdge, false)
	if !s.Inner().Forest.IsTreeEdge[1] || nonTree < 0 {
		t.Fatal("want edge 1 in the spanning tree and a non-tree edge")
	}
	for name, sch := range map[string]*Scheme{"built": s, "loaded": &loaded.Scheme} {
		for _, e := range []int{1, nonTree} {
			if allocs := testing.AllocsPerRun(100, func() { edgeLabelSink = sch.EdgeLabelByIndex(e) }); allocs != 1 {
				t.Errorf("%s: EdgeLabelByIndex(%d) allocates %v times per read, want 1", name, e, allocs)
			}
		}
	}
	l := s.EdgeLabelByIndex(1)
	want := MarshalEdgeLabel(l)
	for i := range l.Out {
		l.Out[i] = ^l.Out[i]
	}
	if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabelByIndex(1)), want) {
		t.Fatal("mutating a read label changed the built scheme's label")
	}
}
