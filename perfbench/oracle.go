package main

import (
	"fmt"
	"repro/internal/graph"
)

// record is one answered request, kept until the oracle checks it after
// the timed phase. bits holds the per-pair answers (reachable flags for
// routes); paths are the returned routes.
type record struct {
	req    request
	gen    uint64
	bits   uint16
	approx bool
	paths  [][]int
}

// oracle checks answers against breadth-first search on the deployed
// graph; every answer must report the deployed generation.
type oracle struct {
	in  *inputs
	gen uint64 // generation of in.g
}

// components labels every vertex with its component in g minus the dead
// edges and dead vertices; dead vertices get -1.
func components(g *graph.Graph, deadEdge, deadVert []bool) []int32 {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var stack []int32
	var c int32
	for s := 0; s < n; s++ {
		if comp[s] >= 0 || (deadVert != nil && deadVert[s]) {
			continue
		}
		comp[s] = c
		stack = append(stack[:0], int32(s))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, h := range g.Adj(int(u)) {
				if (deadEdge != nil && deadEdge[h.Edge]) || (deadVert != nil && deadVert[h.To]) || comp[h.To] >= 0 {
					continue
				}
				comp[h.To] = c
				stack = append(stack, int32(h.To))
			}
		}
		c++
	}
	return comp
}

// checkRoute reports whether a route answer is right: reachability must
// match the oracle (for an approx answer only "reachable" must be true in
// the oracle, since degraded answers are one-sided), and a reachable path
// must run from s to t over edges of g outside the forbidden set.
func checkRoute(g *graph.Graph, dead []bool, comp []int32, s, t int, reachable, approx bool, path []int) bool {
	truth := comp[s] >= 0 && comp[s] == comp[t]
	if reachable != truth && !(approx && !reachable) {
		return false
	}
	if !reachable {
		return true
	}
	if len(path) == 0 || path[0] != s || path[len(path)-1] != t {
		return false
	}
	for i := 1; i < len(path); i++ {
		if path[i-1] < 0 || path[i-1] >= g.N() || path[i] < 0 || path[i] >= g.N() {
			return false
		}
		e := g.EdgeIndex(path[i-1], path[i])
		if e < 0 || dead[e] {
			return false
		}
	}
	return true
}

// checkConnected reports whether a connectivity answer is right; approx
// answers are one-sided, so only a "connected" must hold in the oracle.
func checkConnected(comp []int32, s, t int, got, approx bool) bool {
	truth := comp[s] >= 0 && comp[s] == comp[t]
	return got == truth || (approx && !got)
}

// verify checks every record and returns the number of wrong answers (one
// per pair) with a description of the first few.
func (o *oracle) verify(recs []record) (wrong int, msgs []string) {
	g := o.in.g
	type key struct {
		vertex bool
		event  int32
	}
	memo := map[key][]int32{}
	deadOf := map[int32][]bool{}
	bad := func(format string, a ...any) {
		wrong++
		if len(msgs) < 5 {
			msgs = append(msgs, fmt.Sprintf(format, a...))
		}
	}
	for _, r := range recs {
		if r.gen != o.gen {
			bad("answer from generation %d, the deployment serves %d", r.gen, o.gen)
			continue
		}
		pairs := o.in.batches[r.req.batch]
		vertex := r.req.op == opVProbe
		k := key{vertex, r.req.event}
		comp, ok := memo[k]
		if !ok {
			if vertex {
				dv := make([]bool, g.N())
				for _, v := range o.in.vertEv[r.req.event] {
					dv[v] = true
				}
				comp = components(g, nil, dv)
			} else {
				de := make([]bool, g.M())
				for _, e := range o.in.edgeEv[r.req.event] {
					de[e] = true
				}
				comp = components(g, de, nil)
				deadOf[r.req.event] = de
			}
			memo[k] = comp
		}
		for i, p := range pairs {
			got := r.bits&(1<<i) != 0
			switch r.req.op {
			case opRoute:
				var path []int
				if i < len(r.paths) {
					path = r.paths[i]
				}
				if !checkRoute(g, deadOf[r.req.event], comp, p[0], p[1], got, r.approx, path) {
					bad("route event %d pair %v: reachable=%v approx=%v path=%v", r.req.event, p, got, r.approx, path)
				}
			default:
				if !checkConnected(comp, p[0], p[1], got, r.approx) {
					bad("%s event %d pair %v: got %v approx=%v", opNames[r.req.op], r.req.event, p, got, r.approx)
				}
			}
		}
	}
	return wrong, msgs
}

// packBits packs up to 16 answers into a bitmask.
func packBits(xs []bool) uint16 {
	var b uint16
	for i, x := range xs {
		if x {
			b |= 1 << i
		}
	}
	return b
}
