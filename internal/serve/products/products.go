// Package products is the query-product layer of the serving tier
// (DESIGN.md §3.15): the per-generation compiled state behind the daemon's
// /route and /vconnected endpoints and their degraded (approximate) mode.
//
// The serve layer keeps exactly one Products value. Each generation gets a
// View — a lazily compiled bundle of the routing tables (Corollary 2,
// reusing the daemon's existing labels via routing.NewFromLabels) and the
// f-fault-tolerant bottleneck spanner that backs approximate answers. Both
// are compiled at most once per generation, on first use, behind
// sync.Once: route plans and vertex probes ride the same
// compile-once/reuse-many discipline as the FaultSet cache.
//
// Degraded mode: a fault set larger than the scheme's f budget cannot be
// answered exactly (the labels only encode f-fault detectability), so the
// View answers from the spanner H ⊆ G instead, built with the same budget
// f and κ = 1. Soundness is one-sided: a path found in H − F is a real
// path in G − F (H's edges are G's edges), so "connected"/"reachable" is
// always correct; "disconnected" may be wrong when the fault set exceeds
// what H's redundancy covers. Responses carry `"confidence": "approx"` so
// callers can tell.
package products

import (
	"sort"
	"sync"
	"sync/atomic"

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

// Spanner returns the f-FT bottleneck spanner backing degraded mode
// (building it on first use; κ = 1 keeps the guarantee tightest).
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

// forbiddenH maps a forbidden G-edge set onto the spanner: a []bool over
// H's edge indices. G edges absent from H are simply not representable —
// skipping them is sound because H − F only shrinks further.
func (v *View) forbiddenH(sp *spanner.Spanner, faultEdges []int) []bool {
	blocked := make([]bool, sp.H.M())
	for _, e := range faultEdges {
		if he := sp.SpannerEdge[e]; he >= 0 {
			blocked[he] = true
		}
	}
	return blocked
}

// ApproxConnectedVertices answers s–t connectivity pairs under an
// over-budget VERTEX fault set from the spanner: BFS on H minus the failed
// vertices. canonVerts must be sorted ascending. Appends onto out.
func (v *View) ApproxConnectedVertices(canonVerts []int, pairs [][2]int, out []bool) ([]bool, error) {
	sp, err := v.Spanner()
	if err != nil {
		return nil, err
	}
	dead := make([]bool, v.g.N())
	for _, fv := range canonVerts {
		dead[fv] = true
	}
	for _, p := range pairs {
		if dead[p[0]] || dead[p[1]] {
			out = append(out, false)
			continue
		}
		out = append(out, bfsConnected(sp.H, dead, p[0], p[1]))
	}
	return out, nil
}

// ApproxRoute finds an s–t path under an over-budget edge fault set by BFS
// in H − F. A found path is a real route in G − F (every H edge is a
// non-forbidden G edge); (nil, false) means no path exists in H − F, which
// may under-report reachability — hence the approx marker.
func (v *View) ApproxRoute(faultEdges []int, s, t int) ([]int, bool, error) {
	sp, err := v.Spanner()
	if err != nil {
		return nil, false, err
	}
	blocked := v.forbiddenH(sp, faultEdges)
	if s == t {
		return []int{s}, true, nil
	}
	h := sp.H
	parent := make([]int, h.N())
	for i := range parent {
		parent[i] = -1
	}
	parent[s] = s
	queue := []int{s}
	for len(queue) > 0 && parent[t] < 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, half := range h.Adj(cur) {
			if blocked[half.Edge] || parent[half.To] >= 0 {
				continue
			}
			parent[half.To] = cur
			queue = append(queue, half.To)
		}
	}
	if parent[t] < 0 {
		return nil, false, nil
	}
	var rev []int
	for cur := t; cur != s; cur = parent[cur] {
		rev = append(rev, cur)
	}
	rev = append(rev, s)
	path := make([]int, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, rev[i])
	}
	return path, true, nil
}

// bfsConnected is plain BFS over h minus the dead vertices. The degraded
// path allocates freely — it only runs for over-budget fault sets, which
// are off the zero-alloc steady state by definition.
func bfsConnected(h *graph.Graph, dead []bool, s, t int) bool {
	if s == t {
		return true
	}
	visited := make([]bool, h.N())
	visited[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, half := range h.Adj(cur) {
			if visited[half.To] || dead[half.To] {
				continue
			}
			if half.To == t {
				return true
			}
			visited[half.To] = true
			queue = append(queue, half.To)
		}
	}
	return false
}
