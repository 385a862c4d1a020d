// Package workload generates the graph families and fault sets used by the
// test suites and the benchmark harness. All randomness flows through an
// injected *rand.Rand so every experiment is reproducible from a seed.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyi returns a G(n, p) random graph. If connect is true, a uniform
// random spanning tree worth of extra edges is added first so the result is
// connected (the standard workload of the paper's setting, which assumes a
// spanning tree of the component under study).
func ErdosRenyi(n int, p float64, connect bool, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	if connect && n > 1 {
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			u, v := perm[i], perm[rng.Intn(i)]
			mustAdd(g, u, v)
		}
	}
	// mark[v] == u+1 while row u is drawn and (u, v) is already an edge.
	// Only the spanning tree above and row u's own draws can hold an edge
	// (u, v) with v > u, and the row adds its edges in increasing v, so
	// marking u's neighbours at the start of the row stands in for a map
	// lookup per pair: the draws, and the graph, are the same.
	mark := make([]int, n)
	for u := 0; u < n; u++ {
		for _, h := range g.Adj(u) {
			mark[h.To] = u + 1
		}
		for v := u + 1; v < n; v++ {
			if mark[v] == u+1 {
				continue
			}
			if rng.Float64() < p {
				mustAdd(g, u, v)
			}
		}
	}
	return g
}

// Grid returns the w×h grid graph (large diameter, planar).
func Grid(w, h int) *graph.Graph {
	g := graph.New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				mustAdd(g, id(x, y), id(x+1, y))
			}
			if y+1 < h {
				mustAdd(g, id(x, y), id(x, y+1))
			}
		}
	}
	return g
}

// Torus returns the w×h torus (grid with wraparound), 4-regular for w,h ≥ 3.
func Torus(w, h int) *graph.Graph {
	g := graph.New(w * h)
	id := func(x, y int) int { return y*w + x }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if w > 2 || x+1 < w {
				mustAdd(g, id(x, y), id((x+1)%w, y))
			}
			if h > 2 || y+1 < h {
				mustAdd(g, id(x, y), id(x, (y+1)%h))
			}
		}
	}
	return g
}

// Complete returns K_n.
func Complete(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			mustAdd(g, u, v)
		}
	}
	return g
}

// Cycle returns C_n.
func Cycle(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		mustAdd(g, u, (u+1)%n)
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d vertices.
func Hypercube(d int) *graph.Graph {
	n := 1 << uint(d)
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for b := 0; b < d; b++ {
			v := u ^ (1 << uint(b))
			if u < v {
				mustAdd(g, u, v)
			}
		}
	}
	return g
}

// Petersen returns the Petersen graph (3-regular, girth 5) — a classic
// adversarial instance for connectivity schemes.
func Petersen() *graph.Graph {
	g := graph.New(10)
	for i := 0; i < 5; i++ {
		mustAdd(g, i, (i+1)%5)     // outer pentagon
		mustAdd(g, 5+i, 5+(i+2)%5) // inner pentagram
		mustAdd(g, i, 5+i)         // spokes
	}
	return g
}

// PreferentialAttachment returns a Barabási–Albert-style graph: each new
// vertex attaches to k distinct existing vertices chosen proportionally to
// degree. Produces skewed degree distributions (hub-heavy networks).
func PreferentialAttachment(n, k int, rng *rand.Rand) *graph.Graph {
	if k < 1 {
		k = 1
	}
	g := graph.New(n)
	if n == 0 {
		return g
	}
	// Endpoint pool: every edge contributes both endpoints, so sampling
	// from the pool is degree-proportional.
	pool := []int{0}
	for v := 1; v < n; v++ {
		targets := map[int]bool{}
		attempts := 0
		for len(targets) < k && len(targets) < v && attempts < 50*k {
			targets[pool[rng.Intn(len(pool))]] = true
			attempts++
		}
		if len(targets) == 0 {
			targets[v-1] = true
		}
		for u := range targets {
			mustAdd(g, u, v)
			pool = append(pool, u, v)
		}
	}
	return g
}

// RandomTreePlus returns a uniform random recursive tree plus extra random
// non-tree edges (controls the tree/non-tree edge balance precisely).
func RandomTreePlus(n, extra int, rng *rand.Rand) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		mustAdd(g, rng.Intn(v), v)
	}
	for added, attempts := 0, 0; added < extra && attempts < 100*extra+100; attempts++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v || g.HasEdge(u, v) {
			continue
		}
		mustAdd(g, u, v)
		added++
	}
	return g
}

// AssignRandomWeights sets integer edge weights uniform in [1, maxW].
func AssignRandomWeights(g *graph.Graph, maxW int64, rng *rand.Rand) {
	g.Weights = make([]int64, g.M())
	for i := range g.Weights {
		g.Weights[i] = 1 + rng.Int63n(maxW)
	}
}

// RandomFaults picks size distinct edge indices uniformly at random.
func RandomFaults(g *graph.Graph, size int, rng *rand.Rand) []int {
	m := g.M()
	if size > m {
		size = m
	}
	perm := rng.Perm(m)
	out := make([]int, size)
	copy(out, perm[:size])
	return out
}

// TreeEdgeFaults picks faults biased toward spanning-tree edges: these are
// the faults that actually fragment T and exercise the interesting code
// paths (a non-tree fault never splits a fragment).
func TreeEdgeFaults(g *graph.Graph, f *graph.Forest, size int, rng *rand.Rand) []int {
	var tree, rest []int
	for e := range g.Edges {
		if f.IsTreeEdge[e] {
			tree = append(tree, e)
		} else {
			rest = append(rest, e)
		}
	}
	rng.Shuffle(len(tree), func(i, j int) { tree[i], tree[j] = tree[j], tree[i] })
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	out := make([]int, 0, size)
	out = append(out, tree[:min(size, len(tree))]...)
	if len(out) < size {
		out = append(out, rest[:min(size-len(out), len(rest))]...)
	}
	return out
}

// VertexCutFaults picks all edges incident to a random vertex (up to size),
// a targeted attack that tends to disconnect the graph.
func VertexCutFaults(g *graph.Graph, size int, rng *rand.Rand) []int {
	if g.N() == 0 {
		return nil
	}
	v := rng.Intn(g.N())
	var out []int
	for _, h := range g.Adj(v) {
		if len(out) == size {
			break
		}
		out = append(out, h.Edge)
	}
	return out
}

// FaultSet converts a slice of edge indices into the set form used by the
// ground-truth helpers.
func FaultSet(faults []int) map[int]bool {
	m := make(map[int]bool, len(faults))
	for _, e := range faults {
		m[e] = true
	}
	return m
}

func mustAdd(g *graph.Graph, u, v int) {
	if _, err := g.AddEdge(u, v); err != nil {
		panic(fmt.Sprintf("workload: generator produced invalid edge: %v", err))
	}
}
