package graph

import (
	"container/heap"
	"fmt"
	"sort"
)

// ConnectedUnder reports whether s and t are connected in g − F, where F is
// a set of edge indices. It is the exact ground truth the labeling schemes
// are validated against.
func ConnectedUnder(g *Graph, faults map[int]bool, s, t int) bool {
	if s == t {
		return true
	}
	visited := make([]bool, g.N())
	visited[s] = true
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.Adj(u) {
			if faults[h.Edge] || visited[h.To] {
				continue
			}
			if h.To == t {
				return true
			}
			visited[h.To] = true
			queue = append(queue, h.To)
		}
	}
	return false
}

// ConnectedWithoutVertices reports whether s and t are connected in g minus
// the dead vertices — the vertex-fault ground truth. A dead endpoint is
// connected to nothing, itself included; every other dead vertex fails all
// its incident edges.
func ConnectedWithoutVertices(g *Graph, dead map[int]bool, s, t int) bool {
	if dead[s] || dead[t] {
		return false
	}
	faults := map[int]bool{}
	for v := range dead {
		for _, h := range g.Adj(v) {
			faults[h.Edge] = true
		}
	}
	return ConnectedUnder(g, faults, s, t)
}

// CheckPathUnder returns nil when path is an s→t walk in g − F: it starts
// at s, ends at t, and every hop is an edge of g outside faults. Otherwise
// the error names the first bad hop. Graphs are simple, so a hop names at
// most one edge.
func CheckPathUnder(g *Graph, faults map[int]bool, path []int, s, t int) error {
	if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
		return fmt.Errorf("path %v does not run %d→%d", path, s, t)
	}
	for i := 1; i < len(path); i++ {
		u, v := path[i-1], path[i]
		if e := g.EdgeIndex(u, v); e < 0 {
			return fmt.Errorf("path %v: hop %d (%d,%d) is not an edge", path, i, u, v)
		} else if faults[e] {
			return fmt.Errorf("path %v: hop %d (%d,%d) crosses forbidden edge %d", path, i, u, v, e)
		}
	}
	return nil
}

// Components returns a component id per vertex of g − F and the component
// count.
func Components(g *Graph, faults map[int]bool) ([]int, int) {
	comp := make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	count := 0
	var queue []int
	for r := 0; r < g.N(); r++ {
		if comp[r] != -1 {
			continue
		}
		comp[r] = count
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, h := range g.Adj(u) {
				if faults[h.Edge] || comp[h.To] != -1 {
					continue
				}
				comp[h.To] = count
				queue = append(queue, h.To)
			}
		}
		count++
	}
	return comp, count
}

// HopDistancesUnder returns the single-source hop distances from s in g − F,
// with -1 for unreachable vertices.
func HopDistancesUnder(g *Graph, faults map[int]bool, s int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	queue := []int{s}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, h := range g.Adj(u) {
			if faults[h.Edge] || dist[h.To] != -1 {
				continue
			}
			dist[h.To] = dist[u] + 1
			queue = append(queue, h.To)
		}
	}
	return dist
}

// distItem is a Dijkstra priority-queue entry.
type distItem struct {
	v int
	d int64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// WeightedDistancesUnder returns single-source shortest-path distances in
// g − F under edge weights (Dijkstra), with -1 for unreachable vertices.
func WeightedDistancesUnder(g *Graph, faults map[int]bool, s int) []int64 {
	dist := make([]int64, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	h := &distHeap{{v: s, d: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.d > dist[it.v] {
			continue
		}
		for _, half := range g.Adj(it.v) {
			if faults[half.Edge] {
				continue
			}
			nd := it.d + g.Weight(half.Edge)
			if dist[half.To] == -1 || nd < dist[half.To] {
				dist[half.To] = nd
				heap.Push(h, distItem{v: half.To, d: nd})
			}
		}
	}
	return dist
}

// BottleneckDistanceUnder returns the minimax edge weight over all s–t paths
// in g − F (the fault-tolerant bottleneck distance), or -1 if disconnected.
// Computed by Kruskal-style union of edges in increasing weight order.
func BottleneckDistanceUnder(g *Graph, faults map[int]bool, s, t int) int64 {
	if s == t {
		return 0
	}
	order := make([]int, 0, g.M())
	for e := range g.Edges {
		if !faults[e] {
			order = append(order, e)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return g.Weight(order[i]) < g.Weight(order[j])
	})
	d := newDSULite(g.N())
	for _, e := range order {
		d.union(g.Edges[e].U, g.Edges[e].V)
		if d.find(s) == d.find(t) {
			return g.Weight(e)
		}
	}
	return -1
}

// dsuLite is a minimal union-find local to this file so that graph stays a
// leaf package with no internal imports.
type dsuLite struct{ p []int }

func newDSULite(n int) *dsuLite {
	d := &dsuLite{p: make([]int, n)}
	for i := range d.p {
		d.p[i] = i
	}
	return d
}

func (d *dsuLite) find(x int) int {
	for d.p[x] != x {
		d.p[x] = d.p[d.p[x]]
		x = d.p[x]
	}
	return x
}

func (d *dsuLite) union(a, b int) { d.p[d.find(a)] = d.find(b) }
