// Package products is the query-product layer of the serving tier
// (DESIGN.md §3.15): the per-generation routing tables behind the
// daemon's /route endpoint, the vertex-fault reduction behind
// /vconnected, and the BFS forest of G − F that answers route and vertex
// sets over the labels' f budget.
//
// The serve layer keeps exactly one Products value. Each generation gets a
// View — the routing tables (Corollary 2, reusing the daemon's existing
// labels via routing.NewFromLabels), compiled at most once per
// generation, on first use, behind sync.Once.
//
// Over-budget sets: the labels only encode f-fault detectability, so a
// route or vertex set whose edges exceed f is answered from G itself. A
// Forest is one BFS forest of G − F, built per request into reusable
// scratch: a vertex probe compares two component ids, and a route walks
// both endpoints up the forest to their meeting vertex. The answers are
// exact, and nothing is compiled or cached for them.
package products

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/serve/wire"
	"repro/internal/spanner"
)

// Scheme is the label surface the products compile from — identical to the
// serve package's Scheme interface (declared here too so serve can depend
// on products without a cycle).
type Scheme interface {
	Graph() *graph.Graph
	MaxFaults() int
	Generation() uint64
	VertexLabel(v int) core.VertexLabel
	EdgeLabelByIndex(e int) core.EdgeLabel
	EdgeEnds(e int) (parent, child ancestry.Label)
}

// Products hands out the per-generation View, swapping to a fresh one when
// the serving scheme's generation moves. Safe for concurrent use.
type Products struct {
	mu  sync.Mutex
	cur atomic.Pointer[View]
}

// New returns an empty Products.
func New() *Products { return &Products{} }

// For returns the View for the given scheme snapshot at generation gen,
// creating it if the current one is for another generation. The fast path
// is one atomic load.
func (p *Products) For(sch Scheme, gen uint64) *View {
	if v := p.cur.Load(); v != nil && v.gen == gen {
		return v
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if v := p.cur.Load(); v != nil && v.gen == gen {
		return v
	}
	v := &View{gen: gen, sch: sch, g: sch.Graph()}
	p.cur.Store(v)
	return v
}

// View is the compiled query-product state of one generation. All fields
// build lazily and at most once; a View is immutable once its pieces are
// built, so probes share it freely.
type View struct {
	gen uint64
	sch Scheme
	g   *graph.Graph

	tabOnce sync.Once
	net     *routing.Network

	spanOnce sync.Once
	span     *spanner.Spanner
	spanErr  error
}

// Generation returns the generation the View was compiled for.
func (v *View) Generation() uint64 { return v.gen }

// Net returns the routing network (compiling the per-node tables from the
// daemon's labels on first use).
func (v *View) Net() *routing.Network {
	v.tabOnce.Do(func() {
		v.net = routing.NewFromLabels(v.g, v.sch)
	})
	return v.net
}

// Spanner returns the generation's f-FT bottleneck spanner (κ = 1),
// building it on first use. No server path calls it: over-budget sets are
// answered exactly from a Forest of G − F. It stays only for the
// benchmark's per-layer pass, and goes when that pass stops calling it.
func (v *View) Spanner() (*spanner.Spanner, error) {
	v.spanOnce.Do(func() {
		v.span, v.spanErr = spanner.BuildFT(v.g, v.sch.MaxFaults(), 1)
	})
	return v.span, v.spanErr
}

// VertexFaultEdges gathers the canonical incident edge indices of the
// failed vertices — the §1.4 reduction (a vertex failure is the failure of
// all its incident edges). The result is sorted ascending and
// deduplicated. verts must be in range.
func VertexFaultEdges(g *graph.Graph, verts []int) []int {
	return VertexFaultEdgesInto(nil, g, verts)
}

// VertexFaultEdgesInto is VertexFaultEdges reusing buf's storage (its
// contents are discarded), so the serve executor reduces vertex queries
// without allocating.
func VertexFaultEdgesInto(buf []int, g *graph.Graph, verts []int) []int {
	buf = buf[:0]
	for _, v := range verts {
		for _, half := range g.Adj(v) {
			buf = append(buf, half.Edge)
		}
	}
	return wire.Canonicalize(buf)
}

// HasVertex reports whether canon (sorted ascending) contains v — the
// failed-endpoint check for vertex-fault probes.
func HasVertex(canon []int, v int) bool {
	i := sort.SearchInts(canon, v)
	return i < len(canon) && canon[i] == v
}

// Forest is one BFS forest of G − F: per vertex its component id (the
// component's root), its BFS parent (the root is its own) and its depth.
// Build refills the same arrays, growing them only when n or m grows, so
// a pooled Forest answers over-budget sets without allocating.
type Forest struct {
	comp, parent, depth, queue []int32
	dead                       []bool // per edge index: failed; all false between builds
}

// Build replaces f with the BFS forest of g minus the fault edges, which
// must be in range (duplicates are harmless). The dead-edge mask is set
// from faults and cleared again before Build returns, so keeping it costs
// O(|faults|) per build, not O(m).
func (f *Forest) Build(g *graph.Graph, faults []int) {
	n := g.N()
	if len(f.comp) < n {
		f.comp, f.parent = make([]int32, n), make([]int32, n)
		f.depth, f.queue = make([]int32, n), make([]int32, n)
	}
	if m := g.M(); len(f.dead) < m {
		f.dead = make([]bool, m)
	}
	comp, parent, depth, queue := f.comp[:n], f.parent[:n], f.depth[:n], f.queue[:n]
	for i := range comp {
		comp[i] = -1
	}
	for _, e := range faults {
		f.dead[e] = true
	}
	for r := range comp {
		if comp[r] >= 0 {
			continue
		}
		root := int32(r)
		comp[r], parent[r], depth[r] = root, root, 0
		queue[0] = root
		for head, tail := 0, 1; head < tail; head++ {
			u := queue[head]
			for _, h := range g.Adj(int(u)) {
				if f.dead[h.Edge] || comp[h.To] >= 0 {
					continue
				}
				comp[h.To], parent[h.To], depth[h.To] = root, u, depth[u]+1
				queue[tail] = int32(h.To)
				tail++
			}
		}
	}
	for _, e := range faults {
		f.dead[e] = false
	}
}

// ConnectedVertices appends, per pair, whether it is connected once the
// vertices canonVerts (sorted ascending) fail. f must be built from their
// incident edges, which isolates each failed vertex; a failed endpoint is
// connected to nothing, itself included.
func (f *Forest) ConnectedVertices(canonVerts []int, pairs [][2]int, out []bool) []bool {
	for _, p := range pairs {
		out = append(out, !HasVertex(canonVerts, p[0]) && !HasVertex(canonVerts, p[1]) &&
			f.comp[p[0]] == f.comp[p[1]])
	}
	return out
}

// Path appends the forest path from s to t onto buf, through their
// meeting vertex, and reports whether one exists (s and t share a
// component). Every hop is a forest edge, so the path avoids the fault
// edges the forest was built without.
func (f *Forest) Path(buf []int, s, t int) ([]int, bool) {
	if f.comp[s] != f.comp[t] {
		return buf, false
	}
	a, b := int32(s), int32(t)
	for f.depth[a] > f.depth[b] {
		a = f.parent[a]
	}
	for f.depth[b] > f.depth[a] {
		b = f.parent[b]
	}
	for a != b {
		a, b = f.parent[a], f.parent[b]
	}
	for v := int32(s); v != a; v = f.parent[v] {
		buf = append(buf, int(v))
	}
	buf = append(buf, int(a))
	// The t side is walked t → meeting vertex, so it is reversed in place.
	mid := len(buf)
	for v := int32(t); v != a; v = f.parent[v] {
		buf = append(buf, int(v))
	}
	slices.Reverse(buf[mid:])
	return buf, true
}

// forestScratch is a pooled Forest plus its incident-edge buffer, for
// callers that hold no per-request scratch of their own.
type forestScratch struct {
	edges  []int
	forest Forest
}

var forestPool = sync.Pool{New: func() any { return new(forestScratch) }}

// ApproxConnectedVertices answers s–t connectivity pairs under a vertex
// fault set, exactly, the way the executor answers one over the f budget:
// the §1.4 reduction, one Forest of G − F, two component ids per pair.
// canonVerts must be sorted ascending and in range. Appends onto out; the
// error is always nil. The name predates exact over-budget answers and is
// kept for the benchmark's per-layer pass, which times this path.
func (v *View) ApproxConnectedVertices(canonVerts []int, pairs [][2]int, out []bool) ([]bool, error) {
	sc := forestPool.Get().(*forestScratch)
	defer forestPool.Put(sc)
	sc.edges = VertexFaultEdgesInto(sc.edges, v.g, canonVerts)
	sc.forest.Build(v.g, sc.edges)
	return sc.forest.ConnectedVertices(canonVerts, pairs, out), nil
}
