package products_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve/products"
	"repro/internal/workload"
)

// graphScheme serves a bare graph and budget: the degraded answers read
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

// TestDegradedAnswersSound is the one-sided soundness property of degraded
// mode over seeded over-budget fault sets: every "connected" from
// ApproxConnectedVertices holds in G minus the failed vertices, a failed
// endpoint answers "disconnected", and every ApproxRoute path runs from s
// to t over G edges outside the forbidden set.
func TestDegradedAnswersSound(t *testing.T) {
	const f = 2
	rng := rand.New(rand.NewSource(3))
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
				pairs := make([][2]int, 12)
				for i := range pairs {
					pairs[i] = [2]int{rng.Intn(g.N()), rng.Intn(g.N())}
				}

				// Vertex faults whose incident edges exceed the budget: on
				// odd trials every neighbor of a live vertex x (cutting x
				// off), otherwise random vertices.
				dead := map[int]bool{}
				x := rng.Intn(g.N())
				if trial%2 == 1 {
					for _, h := range g.Adj(x) {
						dead[h.To] = true
					}
				}
				for len(products.VertexFaultEdges(g, keys(dead))) <= f {
					if w := rng.Intn(g.N()); w != x {
						dead[w] = true
					}
				}
				canon := keys(dead)
				pairs = append(pairs,
					[2]int{canon[0], rng.Intn(g.N())}, // a failed endpoint
					[2]int{x, rng.Intn(g.N())})
				out, err := v.ApproxConnectedVertices(canon, pairs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(out) != len(pairs) {
					t.Fatalf("trial %d: %d answers for %d pairs", trial, len(out), len(pairs))
				}
				for i, p := range pairs {
					if (dead[p[0]] || dead[p[1]]) && out[i] {
						t.Fatalf("trial %d: failed endpoint in %v answered connected (dead %v)", trial, p, canon)
					}
					if out[i] && !graph.ConnectedWithoutVertices(g, dead, p[0], p[1]) {
						t.Fatalf("trial %d: approx %v connected, disconnected in G − %v", trial, p, canon)
					}
					switch {
					case out[i]:
						connected++
					case !dead[p[0]] && !dead[p[1]] && !graph.ConnectedWithoutVertices(g, dead, p[0], p[1]):
						cut++
					}
				}

				// Edge faults over the budget; on odd trials they include
				// all but one of x's edges, so routes from x must take the
				// last one.
				faults := workload.RandomFaults(g, f+1+rng.Intn(3), rng)
				if adj := g.Adj(x); trial%2 == 1 && len(adj) > 1 {
					for _, h := range adj[1:] {
						faults = append(faults, h.Edge)
					}
				}
				forbidden := workload.FaultSet(faults)
				for _, p := range pairs {
					path, ok, err := v.ApproxRoute(faults, p[0], p[1])
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						if path != nil {
							t.Fatalf("trial %d: unreachable %v returned path %v", trial, p, path)
						}
						continue
					}
					routes++
					if err := graph.CheckPathUnder(g, forbidden, path, p[0], p[1]); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				}
			}
			if connected == 0 || cut == 0 || routes == 0 {
				t.Fatalf("vacuous run: %d connected answers, %d cut live pairs, %d routes", connected, cut, routes)
			}
		})
	}
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
