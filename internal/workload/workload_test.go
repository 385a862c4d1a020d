package workload

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestErdosRenyiConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		g := ErdosRenyi(n, 0.05, true, rng)
		if g.N() != n {
			t.Fatalf("n = %d, want %d", g.N(), n)
		}
		if _, cnt := graph.Components(g, nil); cnt != 1 {
			t.Fatalf("connect=true produced %d components (n=%d)", cnt, n)
		}
	}
}

func TestGridShape(t *testing.T) {
	g := Grid(4, 3)
	if g.N() != 12 {
		t.Fatalf("N = %d, want 12", g.N())
	}
	// Edges: 3 rows × 3 horizontal + 4 cols × 2 vertical = 9 + 8 = 17.
	if g.M() != 17 {
		t.Fatalf("M = %d, want 17", g.M())
	}
	if _, cnt := graph.Components(g, nil); cnt != 1 {
		t.Fatal("grid should be connected")
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestCompleteAndCycle(t *testing.T) {
	if m := Complete(6).M(); m != 15 {
		t.Errorf("K6 edges = %d, want 15", m)
	}
	c := Cycle(7)
	if c.M() != 7 {
		t.Errorf("C7 edges = %d, want 7", c.M())
	}
	for v := 0; v < 7; v++ {
		if c.Degree(v) != 2 {
			t.Errorf("cycle degree(%d) = %d, want 2", v, c.Degree(v))
		}
	}
}

func TestHypercube(t *testing.T) {
	g := Hypercube(4)
	if g.N() != 16 || g.M() != 32 {
		t.Fatalf("Q4: n=%d m=%d, want 16, 32", g.N(), g.M())
	}
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("Q4 degree(%d) = %d, want 4", v, g.Degree(v))
		}
	}
}

func TestPetersen(t *testing.T) {
	g := Petersen()
	if g.N() != 10 || g.M() != 15 {
		t.Fatalf("Petersen: n=%d m=%d, want 10, 15", g.N(), g.M())
	}
	for v := 0; v < 10; v++ {
		if g.Degree(v) != 3 {
			t.Fatalf("Petersen degree(%d) = %d, want 3", v, g.Degree(v))
		}
	}
}

func TestPreferentialAttachment(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := PreferentialAttachment(100, 2, rng)
	if g.N() != 100 {
		t.Fatalf("n = %d", g.N())
	}
	if _, cnt := graph.Components(g, nil); cnt != 1 {
		t.Fatal("preferential attachment graph should be connected")
	}
}

func TestRandomTreePlus(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomTreePlus(50, 20, rng)
	if g.M() < 49 || g.M() > 69 {
		t.Fatalf("M = %d, want in [49, 69]", g.M())
	}
	if _, cnt := graph.Components(g, nil); cnt != 1 {
		t.Fatal("tree-plus graph should be connected")
	}
}

func TestFaultGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := ErdosRenyi(40, 0.2, true, rng)
	f := graph.SpanningForest(g)

	faults := RandomFaults(g, 5, rng)
	if len(faults) != 5 {
		t.Fatalf("RandomFaults len = %d", len(faults))
	}
	set := FaultSet(faults)
	if len(set) != 5 {
		t.Fatalf("faults not distinct: %v", faults)
	}

	tf := TreeEdgeFaults(g, f, 4, rng)
	if len(tf) != 4 {
		t.Fatalf("TreeEdgeFaults len = %d", len(tf))
	}
	for _, e := range tf {
		if !f.IsTreeEdge[e] {
			t.Fatalf("TreeEdgeFaults returned non-tree edge %d with plenty of tree edges available", e)
		}
	}

	vc := VertexCutFaults(g, 3, rng)
	if len(vc) == 0 || len(vc) > 3 {
		t.Fatalf("VertexCutFaults len = %d", len(vc))
	}

	// Oversized requests clamp.
	all := RandomFaults(g, g.M()+10, rng)
	if len(all) != g.M() {
		t.Fatalf("oversized RandomFaults len = %d, want %d", len(all), g.M())
	}
}

func TestAssignRandomWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := Grid(5, 5)
	AssignRandomWeights(g, 100, rng)
	for e := 0; e < g.M(); e++ {
		w := g.Weight(e)
		if w < 1 || w > 100 {
			t.Fatalf("weight %d out of range", w)
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	g1 := ErdosRenyi(30, 0.1, true, rand.New(rand.NewSource(42)))
	g2 := ErdosRenyi(30, 0.1, true, rand.New(rand.NewSource(42)))
	if g1.M() != g2.M() {
		t.Fatalf("same seed produced different graphs: %d vs %d edges", g1.M(), g2.M())
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge %d differs", i)
		}
	}
}

// erdosRenyiPairScan is ErdosRenyi's pair scan as it was before the row
// marks: one HasEdge lookup per pair. It is the reference the marks must
// reproduce edge for edge.
func erdosRenyiPairScan(n int, p float64, connect bool, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	if connect && n > 1 {
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			u, v := perm[i], perm[rng.Intn(i)]
			mustAdd(g, u, v)
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if g.HasEdge(u, v) {
				continue
			}
			if rng.Float64() < p {
				mustAdd(g, u, v)
			}
		}
	}
	return g
}

func TestErdosRenyiMatchesPairScan(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 192, 1024} {
		for _, p := range []float64{0, 8 / float64(n), 0.5, 1} {
			for _, connect := range []bool{false, true} {
				seeds := []int64{1, 2, 3}
				if n == 1024 && p >= 0.5 {
					seeds = seeds[:1] // half a million edges each
				}
				for _, seed := range seeds {
					got := ErdosRenyi(n, p, connect, rand.New(rand.NewSource(seed)))
					want := erdosRenyiPairScan(n, p, connect, rand.New(rand.NewSource(seed)))
					if !slices.Equal(got.Edges, want.Edges) {
						t.Fatalf("n=%d p=%g connect=%v seed=%d: %d edges, pair scan %d, or a different order",
							n, p, connect, seed, got.M(), want.M())
					}
				}
			}
		}
	}
}
