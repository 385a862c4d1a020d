package routing

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

func TestRouteNoFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := workload.ErdosRenyi(30, 0.15, true, rng)
	net, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 50; q++ {
		s, d := rng.Intn(g.N()), rng.Intn(g.N())
		path, ok, err := net.Route(s, d, nil)
		if err != nil {
			t.Fatalf("Route(%d,%d): %v", s, d, err)
		}
		if !ok {
			t.Fatalf("Route(%d,%d) unreachable in connected graph", s, d)
		}
		validatePath(t, g, path, s, d, nil)
	}
}

// validatePath checks the hop sequence is a real walk avoiding faults.
func validatePath(t *testing.T, g *graph.Graph, path []int, s, d int, faults map[int]bool) {
	t.Helper()
	if len(path) == 0 || path[0] != s || path[len(path)-1] != d {
		t.Fatalf("path %v does not go %d → %d", path, s, d)
	}
	for i := 1; i < len(path); i++ {
		idx := g.EdgeIndex(path[i-1], path[i])
		if idx < 0 {
			t.Fatalf("path uses non-edge (%d,%d)", path[i-1], path[i])
		}
		if faults[idx] {
			t.Fatalf("path crosses forbidden edge (%d,%d)", path[i-1], path[i])
		}
	}
}

func TestRouteUnderFaults(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(40)
		g := workload.ErdosRenyi(n, 0.12, true, rng)
		f := 1 + rng.Intn(3)
		net, err := Build(g, f)
		if err != nil {
			t.Fatal(err)
		}
		forest := graph.SpanningForest(g)
		for q := 0; q < 40; q++ {
			var faults []int
			if q%2 == 0 {
				faults = workload.TreeEdgeFaults(g, forest, rng.Intn(f+1), rng)
			} else {
				faults = workload.RandomFaults(g, rng.Intn(f+1), rng)
			}
			set := workload.FaultSet(faults)
			s, d := rng.Intn(n), rng.Intn(n)
			want := graph.ConnectedUnder(g, set, s, d)
			path, ok, err := net.Route(s, d, faults)
			if err != nil {
				t.Fatalf("trial %d Route(%d,%d,%v): %v", trial, s, d, faults, err)
			}
			if ok != want {
				t.Fatalf("trial %d Route(%d,%d,%v) reachable=%v, want %v", trial, s, d, faults, ok, want)
			}
			if ok {
				validatePath(t, g, path, s, d, set)
			}
		}
	}
}

// TestRoutingStretch measures that delivered paths are not absurdly long
// (the Corollary 2 stretch is measured precisely in the bench harness; here
// we only guard against pathological blowup).
func TestRoutingStretch(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.Grid(8, 8)
	const f = 2
	net, err := Build(g, f)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for q := 0; q < 60; q++ {
		faults := workload.RandomFaults(g, f, rng)
		set := workload.FaultSet(faults)
		s, d := rng.Intn(g.N()), rng.Intn(g.N())
		if s == d || !graph.ConnectedUnder(g, set, s, d) {
			continue
		}
		path, ok, err := net.Route(s, d, faults)
		if err != nil || !ok {
			t.Fatalf("Route(%d,%d): ok=%v err=%v", s, d, ok, err)
		}
		opt := graph.HopDistancesUnder(g, set, s)[d]
		if opt == 0 {
			continue
		}
		stretch := float64(len(path)-1) / float64(opt)
		if stretch > worst {
			worst = stretch
		}
	}
	// Tree detours on an 8×8 grid stay well below this guard.
	if worst > 40 {
		t.Fatalf("worst stretch %.1f is pathological", worst)
	}
	t.Logf("worst observed stretch: %.2f", worst)
}

func TestRouteToSelf(t *testing.T) {
	g := workload.Cycle(5)
	net, err := Build(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	path, ok, err := net.Route(3, 3, nil)
	if err != nil || !ok {
		t.Fatalf("self route: ok=%v err=%v", ok, err)
	}
	if len(path) != 1 || path[0] != 3 {
		t.Fatalf("self route path = %v", path)
	}
}

func TestRouteDisconnected(t *testing.T) {
	g := graph.New(6)
	var ids []int
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}} {
		id, err := g.AddEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	net, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := net.Route(0, 4, nil); err != nil || ok {
		t.Fatalf("cross-component route: ok=%v err=%v", ok, err)
	}
	// Cutting both edges around vertex 1 isolates it.
	if _, ok, err := net.Route(1, 0, []int{ids[0], ids[1]}); err != nil || ok {
		t.Fatalf("isolated route: ok=%v err=%v", ok, err)
	}
}

func TestTableBits(t *testing.T) {
	g := workload.Grid(6, 6)
	net, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	total, maxLocal := net.TableBits()
	if total <= 0 || maxLocal <= 0 || maxLocal > total {
		t.Fatalf("table bits: total=%d max=%d", total, maxLocal)
	}
	// Local tables are O(deg·log n): generously bounded here.
	if maxLocal > 10000 {
		t.Fatalf("max local table %d bits is not compact", maxLocal)
	}
}

// countingSource counts the edge reads of a table build.
type countingSource struct {
	coreSource
	edgeReads int
}

func (c *countingSource) EdgeEnds(e int) (parent, child ancestry.Label) {
	c.edgeReads++
	return c.coreSource.EdgeEnds(e)
}

// TestNewFromLabelsReadsEachEdgeOnce pins that compiling the routing tables
// reads every edge's ancestry labels exactly once, not once per half-edge.
func TestNewFromLabelsReadsEachEdgeOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	built, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{coreSource: coreSource{built.Scheme()}}
	NewFromLabels(g, src)
	if src.edgeReads != g.M() {
		t.Fatalf("NewFromLabels made %d edge reads, want m = %d", src.edgeReads, g.M())
	}
}

// endsOnlySource is a label source whose whole-label reads panic.
type endsOnlySource struct{ coreSource }

func (endsOnlySource) EdgeLabelByIndex(e int) core.EdgeLabel {
	panic(fmt.Sprintf("routing tables read edge %d's whole label", e))
}

// TestNewFromLabelsReadsNoPayload compiles the tables of a snapshot-loaded
// scheme from a source whose EdgeLabelByIndex panics: the build reads only
// the edges' ancestry labels, short ones included, and its tables equal
// those compiled from the built scheme's labels.
func TestNewFromLabelsReadsNoPayload(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	built, err := Build(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	data, err := built.Scheme().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := core.UnmarshalScheme(data)
	if err != nil {
		t.Fatal(err)
	}
	net := NewFromLabels(g, endsOnlySource{coreSource{loaded}})
	if !reflect.DeepEqual(net.tables, built.tables) {
		t.Fatal("tables compiled from EdgeEnds of the loaded scheme differ from the built scheme's")
	}
}
