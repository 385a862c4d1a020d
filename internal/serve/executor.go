package serve

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/serve/products"
	"repro/internal/serve/wire"
)

// The query executor (DESIGN.md §3.15): both protocol surfaces decode a
// request into one query and answer it here, so the pipeline — generation
// pin, canonical fault set, pair and index validation, one cache stab (or,
// over the f budget, one BFS forest of G − F), one retry on a generation
// race — exists once for all three products. Outcomes are HTTP statuses,
// which the wire error codes equal, so a surface only decodes and encodes.

// product is one of the three query products.
type product uint8

const (
	productProbe  product = iota // edge-fault s–t connectivity: /connected, OpProbe
	productRoute                 // forbidden-set route plans: /route, OpRoute
	productVProbe                // vertex-fault s–t connectivity: /vconnected, OpVProbe
	numProducts
)

// query is one decoded request of either surface. Wire frames arrive
// canonical with their FaultKey. JSON requests carry fault indices as
// sent plus edges named by endpoint pair; every attempt canonicalizes them
// into the executor's own buffer, never over the decoded request, because
// a retry re-resolves the endpoints against a fresh snapshot starting from
// the request as sent.
type query struct {
	product   product
	genPin    uint64 // 0 = unpinned
	pairs     [][2]int
	faults    []int    // edge indices, or vertex indices for productVProbe
	endpoints [][2]int // edge faults named by [u,v] (JSON only)
	canonical bool     // faults is strictly ascending and key is FaultKey(faults)
	key       uint64
}

// execState is the per-request state of the executor, pooled by each
// surface: the query, the canonicalization buffers, the route planner's
// scratch, the forest of over-budget answers, the route hops, and the
// answer the surface encodes.
type execState struct {
	q      query
	canon  []int
	edges  []int // a vertex query's canonical incident edges
	plan   []core.RouteStep
	rsc    core.RouteScratch
	forest products.Forest
	hops   []int // backing store of every route path of the batch

	gen        uint64
	hit        bool
	faults     int     // fault count reported to the client
	faultEdges int     // a vertex query's incident-edge count
	out        []bool  // per pair: connected, or reachable for routes
	paths      [][]int // per route pair: the path, nil when unreachable
}

// execute answers x.q into x and returns the outcome's HTTP status. A
// query that races a commit can observe labels from two generations (the
// cache entry from one, vertex labels from the next) and fails fast with
// core.ErrStaleLabel; one retry against a fresh snapshot settles it on the
// new generation.
func (s *Server) execute(x *execState) (int, error) {
	status, err := s.attempt(x)
	if errors.Is(err, core.ErrStaleLabel) {
		status, err = s.attempt(x)
	}
	return status, err
}

// attempt answers x.q against one consistent snapshot: the fault set is
// canonicalized and hashed at most once, the cache is stabbed once, and
// the whole batch of pairs is answered off that one compiled FaultSet.
func (s *Server) attempt(x *execState) (int, error) {
	q := &x.q
	sch := s.view()
	g := sch.Graph()
	n := g.N()
	x.gen = sch.Generation()
	if q.genPin != 0 && q.genPin != x.gen {
		return http.StatusConflict, fmt.Errorf("request pinned to generation %d, server at %d", q.genPin, x.gen)
	}
	canon, key := q.faults, q.key
	if !q.canonical {
		x.canon = append(x.canon[:0], q.faults...)
		for _, uv := range q.endpoints {
			e := -1
			if uv[0] >= 0 && uv[0] < n && uv[1] >= 0 && uv[1] < n {
				e = g.EdgeIndex(uv[0], uv[1])
			}
			if e < 0 {
				return http.StatusBadRequest, fmt.Errorf("no edge (%d,%d)", uv[0], uv[1])
			}
			x.canon = append(x.canon, e)
		}
		x.canon = wire.Canonicalize(x.canon)
		canon = x.canon
		key = wire.FaultKey(canon)
	}
	for _, p := range q.pairs {
		if p[0] < 0 || p[0] >= n || p[1] < 0 || p[1] >= n {
			return http.StatusBadRequest, fmt.Errorf("vertex pair (%d,%d) out of range (n=%d)", p[0], p[1], n)
		}
	}

	x.hit, x.faults, x.faultEdges = false, len(canon), 0
	x.out, x.paths = x.out[:0], x.paths[:0]
	edges := canon
	if q.product == productVProbe {
		// Paper §1.4: a failed vertex is the failure of all its incident
		// edges, so a vertex set resolves as its canonical incident-edge
		// set, through the cache and update sweep every product shares.
		for _, v := range canon {
			if v < 0 || v >= n {
				return http.StatusUnprocessableEntity, fmt.Errorf("fault vertex index %d out of range (n=%d)", v, n)
			}
		}
		x.edges = products.VertexFaultEdgesInto(x.edges, g, canon)
		edges = x.edges
	} else if err := checkEdges(canon, g.M()); err != nil {
		return http.StatusUnprocessableEntity, err
	}
	if len(edges) > sch.MaxFaults() && q.product != productProbe {
		return s.overBudget(x, g, canon, edges)
	}
	if q.product == productVProbe {
		key = wire.FaultKey(edges)
	}
	fs, hit, err := s.resolve(sch, edges, key)
	x.hit = hit
	if q.product == productVProbe {
		if hit {
			s.vprobeHits.Add(1)
		} else {
			s.vprobeMisses.Add(1)
		}
	}
	if err != nil {
		return statusOf(err, http.StatusUnprocessableEntity), err
	}
	if q.product == productVProbe {
		x.faultEdges = fs.Faults()
	} else {
		x.faults = fs.Faults()
	}
	if q.product == productRoute {
		// Plans execute through the generation's routing tables, so each
		// returned path is the simulator's actual trajectory. The plan and
		// the paths live in x's pooled scratch.
		net := s.products.For(sch, x.gen).Net()
		x.hops = x.hops[:0]
		for i, p := range q.pairs {
			var ok bool
			x.plan, ok, err = fs.AppendRoutePlan(x.plan[:0], &x.rsc, sch.VertexLabel(p[0]), sch.VertexLabel(p[1]))
			if err != nil {
				return statusOf(err, http.StatusInternalServerError), fmt.Errorf("pair %d: %w", i, err)
			}
			var path []int
			if ok {
				start := len(x.hops)
				var reached bool
				x.hops, reached, err = net.Execute(x.hops, p[0], p[1], x.plan, canon)
				if err != nil || !reached {
					return http.StatusInternalServerError, fmt.Errorf("pair %d: route execution failed: %v", i, err)
				}
				path = x.hops[start:len(x.hops):len(x.hops)]
			}
			x.out = append(x.out, ok)
			x.paths = append(x.paths, path)
		}
		return http.StatusOK, nil
	}
	for i, p := range q.pairs {
		// A failed endpoint is disconnected from everything, including
		// itself (the root package's VertexFaultSet semantics).
		if q.product == productVProbe && (products.HasVertex(canon, p[0]) || products.HasVertex(canon, p[1])) {
			x.out = append(x.out, false)
			continue
		}
		ok, err := fs.Connected(sch.VertexLabel(p[0]), sch.VertexLabel(p[1]))
		if err != nil {
			return statusOf(err, http.StatusInternalServerError), fmt.Errorf("pair %d: %w", i, err)
		}
		x.out = append(x.out, ok)
	}
	return http.StatusOK, nil
}

// overBudget answers a route or vertex set over the f budget, which the
// labels cannot decode, exactly from one BFS forest of G − F built in x's
// pooled scratch: a vertex pair compares two component ids, a route walks
// both endpoints up to their meeting vertex. Nothing is compiled or
// cached: the forest costs one BFS of G, while an n-entry cache value
// would evict compiled sets that cost far more to rebuild.
func (s *Server) overBudget(x *execState, g *graph.Graph, canon, edges []int) (int, error) {
	x.forest.Build(g, edges)
	if x.q.product == productVProbe {
		x.faultEdges = len(edges)
		x.out = x.forest.ConnectedVertices(canon, x.q.pairs, x.out)
	} else {
		// Paths share x.hops, as in-budget routes do; each is capped so
		// no append through it can reach the next.
		x.hops = x.hops[:0]
		for _, p := range x.q.pairs {
			start := len(x.hops)
			var ok bool
			x.hops, ok = x.forest.Path(x.hops, p[0], p[1])
			var path []int
			if ok {
				path = x.hops[start:len(x.hops):len(x.hops)]
			}
			x.out = append(x.out, ok)
			x.paths = append(x.paths, path)
		}
	}
	s.overBudgetPairs.Add(uint64(len(x.q.pairs)))
	return http.StatusOK, nil
}

// resolve returns the compiled FaultSet of a canonical (sorted,
// deduplicated) fault-edge slice from the cache. hit reports whether the
// cache already held the compiled set. For a fixed generation the
// canonical indices determine the fault labels one-to-one, so a hit
// touches no labels at all. canon is not retained (the cache copies it on
// insert), so callers may pool it.
//
// canon must be in range (checkEdges). Over-budget sets are refused before
// the cache is touched, so invalid events never evict compiled valid ones.
func (s *Server) resolve(sch Scheme, canon []int, key uint64) (*core.FaultSet, bool, error) {
	// Distinct edges are distinct faults in every scheme kind, so this
	// budget check is exact and CompileFaults would reject too.
	if budget := sch.MaxFaults(); len(canon) > budget {
		return nil, false, fmt.Errorf("%w: %d faults, budget %d", core.ErrTooManyFaults, len(canon), budget)
	}
	compile := func() (*core.FaultSet, error) {
		labels := make([]core.EdgeLabel, len(canon))
		for i, e := range canon {
			labels[i] = sch.EdgeLabelByIndex(e)
		}
		return core.CompileFaults(labels)
	}
	ent, hit := s.cache.get(key, canon, sch.Generation())
	if ent == nil {
		// Key collision with a different fault set: serve correctness over
		// caching and compile a one-off set.
		fs, err := compile()
		return fs, false, err
	}
	ent.once.Do(func() {
		ent.fs, ent.err = compile()
		ent.compiled.Store(true)
	})
	return ent.fs, hit, ent.err
}

// checkEdges refuses a fault edge index outside [0, m), before any mask or
// cache sees it.
func checkEdges(canon []int, m int) error {
	for _, e := range canon {
		if e < 0 || e >= m {
			return fmt.Errorf("fault edge index %d out of range (m=%d)", e, m)
		}
	}
	return nil
}

// statusOf maps an error from compiling or probing a fault set to its
// HTTP status: a generation race is a conflict, an AGM whp decode failure
// is a server-side limitation of the scheme rather than a client error,
// and anything else takes def.
func statusOf(err error, def int) int {
	switch {
	case errors.Is(err, core.ErrStaleLabel):
		return http.StatusConflict
	case errors.Is(err, core.ErrDecode):
		return http.StatusInternalServerError
	}
	return def
}
