package graph

import (
	"errors"
	"testing"
)

func TestAddEdgeValidation(t *testing.T) {
	g := New(4)
	if _, err := g.AddEdge(0, 0); !errors.Is(err, ErrBadEdge) {
		t.Errorf("self-loop: err = %v, want ErrBadEdge", err)
	}
	if _, err := g.AddEdge(0, 4); !errors.Is(err, ErrBadEdge) {
		t.Errorf("out of range: err = %v, want ErrBadEdge", err)
	}
	if _, err := g.AddEdge(-1, 2); !errors.Is(err, ErrBadEdge) {
		t.Errorf("negative: err = %v, want ErrBadEdge", err)
	}
	idx, err := g.AddEdge(2, 1)
	if err != nil {
		t.Fatalf("AddEdge(2,1): %v", err)
	}
	if idx != 0 {
		t.Errorf("first edge index = %d, want 0", idx)
	}
	if _, err := g.AddEdge(1, 2); !errors.Is(err, ErrBadEdge) {
		t.Errorf("duplicate (either orientation): err = %v, want ErrBadEdge", err)
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be orientation-independent")
	}
	if g.EdgeIndex(2, 1) != 0 {
		t.Errorf("EdgeIndex(2,1) = %d, want 0", g.EdgeIndex(2, 1))
	}
	if g.EdgeIndex(0, 3) != -1 {
		t.Errorf("EdgeIndex(0,3) = %d, want -1", g.EdgeIndex(0, 3))
	}
}

func TestEdgeNormalization(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(2, 0); err != nil {
		t.Fatal(err)
	}
	e := g.Edges[0]
	if e.U != 0 || e.V != 2 {
		t.Errorf("edge stored as (%d,%d), want (0,2)", e.U, e.V)
	}
	if e.Other(0) != 2 || e.Other(2) != 0 {
		t.Error("Other endpoint lookup broken")
	}
}

func TestWeights(t *testing.T) {
	g := New(3)
	if _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if g.Weight(0) != 1 {
		t.Errorf("unweighted Weight = %d, want 1", g.Weight(0))
	}
	if _, err := g.AddWeightedEdge(1, 2, 7); err != nil {
		t.Fatal(err)
	}
	if g.Weight(0) != 1 || g.Weight(1) != 7 {
		t.Errorf("weights = %d,%d, want 1,7", g.Weight(0), g.Weight(1))
	}
	if _, err := g.AddWeightedEdge(0, 2, 0); !errors.Is(err, ErrBadEdge) {
		t.Errorf("zero weight: err = %v, want ErrBadEdge", err)
	}
}

func TestSpanningForestPath(t *testing.T) {
	// Path 0-1-2-3 plus isolated vertex 4 and component {5,6}.
	g := New(7)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {5, 6}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	f := SpanningForest(g)
	if len(f.Roots) != 3 {
		t.Fatalf("roots = %v, want 3 components", f.Roots)
	}
	if f.Comp[0] != f.Comp[3] {
		t.Error("0 and 3 should share a component")
	}
	if f.Comp[0] == f.Comp[4] || f.Comp[0] == f.Comp[5] {
		t.Error("components should be distinct")
	}
	// Every non-root has a parent in the same component and the parent
	// edge actually joins them.
	for v := 0; v < 7; v++ {
		p := f.Parent[v]
		if p == -1 {
			continue
		}
		if f.Comp[p] != f.Comp[v] {
			t.Errorf("parent %d of %d in different component", p, v)
		}
		e := g.Edges[f.ParentEdge[v]]
		if (e.U != v || e.V != p) && (e.U != p || e.V != v) {
			t.Errorf("parent edge of %d does not join %d-%d", v, v, p)
		}
	}
	// Tree edge count = n - #components (for vertices present).
	tree := 0
	for _, b := range f.IsTreeEdge {
		if b {
			tree++
		}
	}
	if tree != 7-3 {
		t.Errorf("tree edges = %d, want 4", tree)
	}
}

func TestConnectedUnder(t *testing.T) {
	// Cycle 0-1-2-3-0 with chord 0-2.
	g := New(4)
	var idx [5]int
	for i, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 2}} {
		j, err := g.AddEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		idx[i] = j
	}
	if !ConnectedUnder(g, nil, 1, 3) {
		t.Error("connected without faults")
	}
	// Remove 1-2 and 0-1: vertex 1 isolated.
	faults := map[int]bool{idx[0]: true, idx[1]: true}
	if ConnectedUnder(g, faults, 1, 3) {
		t.Error("1 should be isolated")
	}
	if !ConnectedUnder(g, faults, 2, 3) {
		t.Error("2-3 should survive")
	}
	if !ConnectedUnder(g, faults, 1, 1) {
		t.Error("s == t is always connected")
	}
}

func TestConnectedWithoutVertices(t *testing.T) {
	// Path 0-1-2-3 with a detour 0-4-2.
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 2}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !ConnectedWithoutVertices(g, map[int]bool{1: true}, 0, 3) {
		t.Error("0-3 should survive vertex 1 through the detour")
	}
	if ConnectedWithoutVertices(g, map[int]bool{2: true}, 0, 3) {
		t.Error("vertex 2 is a cut vertex for 0-3")
	}
	if ConnectedWithoutVertices(g, map[int]bool{3: true}, 3, 3) {
		t.Error("a dead endpoint is connected to nothing, itself included")
	}
	if !ConnectedWithoutVertices(g, nil, 1, 1) {
		t.Error("a live s == t is connected")
	}
}

func TestComponentsAndDistances(t *testing.T) {
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {3, 4}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	comp, cnt := Components(g, nil)
	if cnt != 2 {
		t.Fatalf("components = %d, want 2", cnt)
	}
	if comp[0] != comp[2] || comp[3] != comp[4] || comp[0] == comp[3] {
		t.Errorf("component labels wrong: %v", comp)
	}
	d := HopDistancesUnder(g, nil, 0)
	want := []int{0, 1, 2, -1, -1}
	for i := range want {
		if d[i] != want[i] {
			t.Errorf("dist[%d] = %d, want %d", i, d[i], want[i])
		}
	}
}

func TestWeightedAndBottleneckDistances(t *testing.T) {
	// Triangle with a heavy shortcut: 0-1 (w=10), 1-2 (w=1), 0-2 (w=2).
	g := New(3)
	type we struct {
		u, v int
		w    int64
	}
	var ids [3]int
	for i, e := range []we{{0, 1, 10}, {1, 2, 1}, {0, 2, 2}} {
		j, err := g.AddWeightedEdge(e.u, e.v, e.w)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = j
	}
	d := WeightedDistancesUnder(g, nil, 0)
	if d[1] != 3 { // 0-2-1 = 2+1
		t.Errorf("d(0,1) = %d, want 3", d[1])
	}
	if b := BottleneckDistanceUnder(g, nil, 0, 1); b != 2 {
		t.Errorf("bottleneck(0,1) = %d, want 2", b)
	}
	faults := map[int]bool{ids[2]: true} // remove 0-2
	if b := BottleneckDistanceUnder(g, faults, 0, 1); b != 10 {
		t.Errorf("bottleneck(0,1) under fault = %d, want 10", b)
	}
	faults[ids[0]] = true // also remove 0-1
	if b := BottleneckDistanceUnder(g, faults, 0, 1); b != -1 {
		t.Errorf("bottleneck(0,1) disconnected = %d, want -1", b)
	}
	if b := BottleneckDistanceUnder(g, nil, 2, 2); b != 0 {
		t.Errorf("bottleneck(v,v) = %d, want 0", b)
	}
}

func TestClone(t *testing.T) {
	g := New(3)
	if _, err := g.AddWeightedEdge(0, 1, 5); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if _, err := c.AddWeightedEdge(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if g.M() != 1 || c.M() != 2 {
		t.Errorf("clone not independent: g.M=%d c.M=%d", g.M(), c.M())
	}
	if c.Weight(0) != 5 {
		t.Errorf("clone weight = %d, want 5", c.Weight(0))
	}
}

func TestCheckPathUnder(t *testing.T) {
	// Path 0-1-2-3 with a detour 0-4-2; edge 1 is (1,2).
	g := New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 4}, {4, 2}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	forbidden := map[int]bool{1: true}
	for _, tc := range []struct {
		path []int
		ok   bool
	}{
		{[]int{0, 4, 2, 3}, true},
		{[]int{0, 1, 2, 3}, false}, // crosses the forbidden (1,2)
		{[]int{0, 2, 3}, false},    // (0,2) is not an edge
		{[]int{0, 4, 2}, false},    // ends short of 3
		{nil, false},
	} {
		if err := CheckPathUnder(g, forbidden, tc.path, 0, 3); (err == nil) != tc.ok {
			t.Errorf("path %v: err %v, want ok=%v", tc.path, err, tc.ok)
		}
	}
	if err := CheckPathUnder(g, nil, []int{3}, 3, 3); err != nil {
		t.Errorf("s == t single-vertex path: %v", err)
	}
}
