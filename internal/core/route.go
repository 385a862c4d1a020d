package core

import (
	"fmt"
	"slices"

	"repro/internal/fragments"
)

// RouteStep is one leg of a forbidden-set route plan (Corollary 2 support).
// The router tree-routes toward the T′ preorder Near; when the current node
// either owns the virtual subdivision vertex with preorder Near, or is
// itself Near and Far is nonzero, it crosses the non-tree edge identified by
// the pair and continues with the next step. A final step has Far == 0 and
// Near == the destination's preorder.
type RouteStep struct {
	Near, Far uint32
}

// crossRec is a decoded crossing edge remembered during query growth: the
// edge's two ID parts and the (original, pre-merge) fragments they stab.
type crossRec struct {
	p1, p2 uint32
	c1, c2 int
}

// crossGraph is the fragment graph spanned by recorded crossings: the
// crossings themselves plus, per fragment, the indices of the crossings
// that leave it. Both route planners walk it — the one-shot RoutePlan over
// the crossings its early-terminating query decoded, FaultSet.RoutePlan
// over those of one full-closure run.
type crossGraph struct {
	frags *fragments.Set
	recs  []crossRec
	adj   [][]int32
}

// newCrossGraph indexes recs by the fragments of frags they join.
func newCrossGraph(frags *fragments.Set, recs []crossRec) crossGraph {
	adj := make([][]int32, frags.Count())
	for ri, r := range recs {
		if r.c1 == r.c2 {
			continue
		}
		adj[r.c1] = append(adj[r.c1], int32(ri))
		adj[r.c2] = append(adj[r.c2], int32(ri))
	}
	return crossGraph{frags: frags, recs: recs, adj: adj}
}

// RouteScratch is the reusable working memory of a route plan's fragment
// BFS: per fragment the crossing that discovered it and a visited mark,
// plus the queue. The zero value is ready; buffers grow to the largest
// component planned and are reused after that. A scratch serves one plan
// at a time.
type RouteScratch struct {
	prev  []int32
	seen  []bool
	queue []int32
}

// plan finds a fragment path from fragS to fragT by BFS in sc and walks it
// back into route steps appended onto dst: one crossing per fragment
// boundary, then final. The caller has established that the two fragments
// are connected, so a missing path is an internal error.
func (g crossGraph) plan(dst []RouteStep, sc *RouteScratch, fragS, fragT int, final RouteStep) ([]RouteStep, error) {
	count := len(g.adj)
	sc.prev = grown(sc.prev, count)
	sc.seen = grown(sc.seen, count)
	clear(sc.seen)
	sc.seen[fragS] = true
	sc.queue = append(grown(sc.queue, count)[:0], int32(fragS))
	for head := 0; head < len(sc.queue) && !sc.seen[fragT]; head++ {
		c := int(sc.queue[head])
		for _, ri := range g.adj[c] {
			r := g.recs[ri]
			next := r.c1 + r.c2 - c
			if sc.seen[next] {
				continue
			}
			sc.seen[next] = true
			sc.prev[next] = ri
			sc.queue = append(sc.queue, int32(next))
		}
	}
	if !sc.seen[fragT] {
		return dst, fmt.Errorf("core: internal: no fragment path between connected fragments")
	}
	// Walk back from t's fragment, appending crossings in reverse, then
	// reverse them in place.
	start := len(dst)
	for cur := fragT; cur != fragS; {
		r := g.recs[sc.prev[cur]]
		from := r.c1 + r.c2 - cur
		near, far := r.p1, r.p2
		if g.frags.Stab(near) != from {
			near, far = far, near
		}
		dst = append(dst, RouteStep{Near: near, Far: far})
		cur = from
	}
	slices.Reverse(dst[start:])
	return append(dst, final), nil
}

// RoutePlan computes a forbidden-set route plan from s to t avoiding the
// faulty edges, using labels only. It returns (plan, true, nil) when t is
// reachable; (nil, false, nil) when provably unreachable. The plan's
// crossings hop between tree fragments exactly along a path in the fragment
// graph discovered by the §7.6 query, which stops as soon as s and t merge.
func RoutePlan(s, t VertexLabel, faults []EdgeLabel) ([]RouteStep, bool, error) {
	if err := checkStamp(s.Token, s.Gen, t.Token, t.Gen, "vertex tokens"); err != nil {
		return nil, false, err
	}
	if s.Anc.Root != t.Anc.Root {
		return nil, false, nil
	}
	final := RouteStep{Near: t.Anc.Pre}
	if s.Anc.Pre == t.Anc.Pre {
		return []RouteStep{final}, true, nil
	}
	q, err := oneShotQuery(s, t, faults)
	if err != nil {
		return nil, false, err
	}
	if q == nil {
		// No relevant faults: pure tree routing.
		return []RouteStep{final}, true, nil
	}
	defer releaseQueryState(q)
	if q.fragS == q.fragT {
		// Same fragment: pure tree routing.
		return []RouteStep{final}, true, nil
	}
	q.recording = true
	ok, err := q.runFast()
	if err != nil || !ok {
		return nil, false, err
	}
	var sc RouteScratch
	plan, err := newCrossGraph(q.comp.frags, q.records).plan(nil, &sc, int(q.fragS), int(q.fragT), final)
	if err != nil {
		return nil, false, err
	}
	return plan, true, nil
}
