package products_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve/products"
	"repro/internal/spanner"
	"repro/internal/workload"
)

// graphScheme serves a bare graph and budget: over-budget answers read
// nothing else of the scheme, so the labels stay zero.
type graphScheme struct {
	g *graph.Graph
	f int
}

func (s graphScheme) Graph() *graph.Graph                 { return s.g }
func (s graphScheme) MaxFaults() int                      { return s.f }
func (s graphScheme) Generation() uint64                  { return 1 }
func (s graphScheme) VertexLabel(int) core.VertexLabel    { return core.VertexLabel{} }
func (s graphScheme) EdgeLabelByIndex(int) core.EdgeLabel { return core.EdgeLabel{} }
func (s graphScheme) EdgeEnds(int) (parent, child ancestry.Label) {
	return ancestry.Label{}, ancestry.Label{}
}

// faultSets is one trial's over-budget sets: failed vertices (dead), edge
// faults, and the pairs to answer under each.
type faultSets struct {
	dead   map[int]bool
	faults []int
	pairs  [][2]int
}

// TestDegradedAnswersSound checks that over-budget answers are exact:
// every ApproxConnectedVertices answer equals graph.ConnectedWithoutVertices
// (a failed endpoint answers "disconnected"), every Forest.Path
// reachability equals graph.ConnectedUnder, and every returned path runs
// from s to t over G edges outside the forbidden set. One Forest serves
// every trial of every family, so it also grows with n and m and must
// leave no edge of one build dead in the next.
//
// The er-vs-spanner family is adversarial for the retired spanner
// answers: for each x with a G-edge (x,y) outside H = BuildFT(G, 2, 1),
// its sets cut every H-edge of x, so only edges H dropped reach x, and
// (x,y) must still be answered connected.
func TestDegradedAnswersSound(t *testing.T) {
	const f = 2
	rng := rand.New(rand.NewSource(3))
	var forest products.Forest
	check := func(t *testing.T, g *graph.Graph, v *products.View, trial int, fs faultSets) (connected, cut, routes int) {
		t.Helper()
		canon := keys(fs.dead)
		if len(products.VertexFaultEdges(g, canon)) <= f || len(fs.faults) <= f {
			t.Fatalf("trial %d: fault sets within the budget: vertices %v, edges %v", trial, canon, fs.faults)
		}
		out, err := v.ApproxConnectedVertices(canon, fs.pairs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != len(fs.pairs) {
			t.Fatalf("trial %d: %d answers for %d pairs", trial, len(out), len(fs.pairs))
		}
		for i, p := range fs.pairs {
			want := graph.ConnectedWithoutVertices(g, fs.dead, p[0], p[1])
			if out[i] != want {
				t.Fatalf("trial %d: %v connected %v, %v in G − vertices %v", trial, p, out[i], want, canon)
			}
			switch {
			case want:
				connected++
			case !fs.dead[p[0]] && !fs.dead[p[1]]:
				cut++
			}
		}

		forest.Build(g, fs.faults)
		forbidden := workload.FaultSet(fs.faults)
		var buf []int
		for _, p := range fs.pairs {
			start := len(buf)
			var ok bool
			buf, ok = forest.Path(buf, p[0], p[1])
			if want := graph.ConnectedUnder(g, forbidden, p[0], p[1]); ok != want {
				t.Fatalf("trial %d: route %v reachable %v, %v in G − %v", trial, p, ok, want, fs.faults)
			}
			if !ok {
				if len(buf) != start {
					t.Fatalf("trial %d: unreachable %v wrote path %v", trial, p, buf[start:])
				}
				continue
			}
			routes++
			if err := graph.CheckPathUnder(g, forbidden, buf[start:], p[0], p[1]); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		return connected, cut, routes
	}
	randomPairs := func(g *graph.Graph) [][2]int {
		pairs := make([][2]int, 12)
		for i := range pairs {
			pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
		}
		return pairs
	}

	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"wheel", workload.Wheel(24)},
		{"power-law", workload.PowerLawCluster(60, 2, 0.3, rng)},
		{"fat-tree", workload.FatTree(6)},
	}
	for _, fam := range families {
		t.Run(fam.name, func(t *testing.T) {
			g := fam.g
			v := products.New().For(graphScheme{g: g, f: f}, 1)
			connected, cut, routes := 0, 0, 0
			for trial := 0; trial < 40; trial++ {
				fs := faultSets{dead: map[int]bool{}, pairs: randomPairs(g)}
				// Vertex faults whose incident edges exceed the budget: on
				// odd trials every neighbor of a live vertex x (cutting x
				// off), otherwise random vertices.
				x := rng.Intn(g.N())
				if trial%2 == 1 {
					for _, h := range g.Adj(x) {
						fs.dead[h.To] = true
					}
				}
				for len(products.VertexFaultEdges(g, keys(fs.dead))) <= f {
					if w := rng.Intn(g.N()); w != x {
						fs.dead[w] = true
					}
				}
				fs.pairs = append(fs.pairs,
					[2]int{keys(fs.dead)[0], rng.Intn(g.N())}, // a failed endpoint
					[2]int{x, rng.Intn(g.N())})
				// Edge faults over the budget; on odd trials they include
				// all but one of x's edges, so routes from x must take the
				// last one.
				fs.faults = workload.RandomFaults(g, f+1+rng.Intn(3), rng)
				if adj := g.Adj(x); trial%2 == 1 && len(adj) > 1 {
					for _, h := range adj[1:] {
						fs.faults = append(fs.faults, h.Edge)
					}
				}
				c, k, r := check(t, g, v, trial, fs)
				connected, cut, routes = connected+c, cut+k, routes+r
			}
			if connected == 0 || cut == 0 || routes == 0 {
				t.Fatalf("vacuous run: %d connected answers, %d cut live pairs, %d routes", connected, cut, routes)
			}
		})
	}

	t.Run("er-vs-spanner", func(t *testing.T) {
		g := workload.ErdosRenyi(60, 0.2, true, rand.New(rand.NewSource(5)))
		sp, err := spanner.BuildFT(g, f, 1)
		if err != nil {
			t.Fatal(err)
		}
		v := products.New().For(graphScheme{g: g, f: f}, 1)
		cases := 0
		for x := 0; x < g.N(); x++ {
			var hEdges []int
			y := -1
			for _, h := range g.Adj(x) {
				if sp.InSpanner[h.Edge] {
					hEdges = append(hEdges, h.Edge)
				} else if y < 0 {
					y = h.To
				}
			}
			if y < 0 {
				continue
			}
			fs := faultSets{dead: map[int]bool{}, faults: hEdges, pairs: append(randomPairs(g), [2]int{x, y}, [2]int{y, x})}
			// Vertex case: every H-neighbour of x fails. y is no
			// H-neighbour (G is simple), so (x,y) survives.
			for _, h := range g.Adj(x) {
				if sp.InSpanner[h.Edge] {
					fs.dead[h.To] = true
				}
			}
			// Edge case: x's H-edges, padded past f with edges away from x.
			for len(fs.faults) <= f {
				if e := rng.Intn(g.M()); g.Edges[e].U != x && g.Edges[e].V != x {
					fs.faults = append(fs.faults, e)
				}
			}
			check(t, g, v, x, fs)
			cases++
		}
		if cases == 0 {
			t.Fatal("vacuous run: H = BuildFT(G, 2, 1) kept every edge")
		}
		t.Logf("%d vertices with a G-edge outside H, each answered exactly", cases)
	})
}

// keys returns the set's members in ascending order.
func keys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
