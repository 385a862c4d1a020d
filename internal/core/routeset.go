package core

// This file gives the compiled FaultSet the route product: RoutePlan is the
// compiled-once counterpart of the one-shot RoutePlan in route.go, exactly
// as FaultSet.Connected is the compiled counterpart of the one-shot
// Connected. The crossing structure is recorded once per component
// (ensureRouted) and every subsequent plan walks it (crossGraph.plan, shared
// with the one-shot planner) over at most f+1 fragments — no label decoding.
// AppendRoutePlan is the same product for a caller that pools the plan and
// the BFS scratch.

// ensureRouted records the component's crossing structure once: a single
// full-closure run (fragS = fragT = -1 drives every super-fragment to
// completion) with recording on, so q.records ends up holding every decoded
// crossing. Every union-find merge during closure is triggered by a decoded
// crossing, and each decoded crossing is recorded before the both-inside
// skip — so the recorded set contains a spanning structure of each closure
// class, and BFS over it finds a fragment path between any two fragments
// that are connected in G − F. The same run seeds the closure partition, so
// a route-first workload never pays for a second growth.
func (c *faultComponent) ensureRouted() error {
	c.routeOnce.Do(func() {
		q := c.acquire()
		defer releaseQueryState(q)
		q.recording = true
		if _, err := q.runFast(); err != nil {
			c.routeErr = err
			return
		}
		c.closeOnce.Do(func() {
			closure := make([]int32, c.count)
			for i := range closure {
				closure[i] = q.find(int32(i))
			}
			c.closure = closure
		})
		// Copy the records: q's buffer goes back to the pool.
		c.route = newCrossGraph(c.frags, append([]crossRec(nil), q.records...))
	})
	if c.routeErr != nil {
		return c.routeErr
	}
	// The closure may have been computed (and failed) by an earlier
	// ensureClosed before our seeding attempt ran.
	return c.closeErr
}

// RoutePlan computes a forbidden-set route plan from s to t avoiding the
// compiled fault set, using labels only. Semantics match the one-shot
// RoutePlan: (plan, true, nil) when t is reachable in G − F, (nil, false,
// nil) when provably unreachable. It is AppendRoutePlan into fresh
// storage.
func (fs *FaultSet) RoutePlan(s, t VertexLabel) ([]RouteStep, bool, error) {
	var sc RouteScratch
	return fs.AppendRoutePlan(nil, &sc, s, t)
}

// AppendRoutePlan is RoutePlan appending the plan onto dst and running the
// fragment BFS in sc, so a caller that reuses both plans without
// allocating. The first plan that touches a component records its
// crossing structure; after that a plan costs two interval stabs plus a
// BFS over ≤ f+1 fragments. On an unreachable pair or an error dst comes
// back unextended.
func (fs *FaultSet) AppendRoutePlan(dst []RouteStep, sc *RouteScratch, s, t VertexLabel) ([]RouteStep, bool, error) {
	if err := checkStamp(s.Token, s.Gen, t.Token, t.Gen, "vertex tokens"); err != nil {
		return dst, false, err
	}
	if fs.hasFaults {
		if err := checkStamp(s.Token, s.Gen, fs.token, fs.gen, "vertex and fault tokens"); err != nil {
			return dst, false, err
		}
	}
	if s.Anc.Root != t.Anc.Root {
		return dst, false, nil
	}
	final := RouteStep{Near: t.Anc.Pre}
	if s.Anc.Pre == t.Anc.Pre {
		return append(dst, final), true, nil
	}
	comp := fs.compForRoot(s.Anc.Root)
	if comp == nil {
		// No fault touches this component: pure tree routing.
		return append(dst, final), true, nil
	}
	if err := comp.ensureRouted(); err != nil {
		return dst, false, err
	}
	fragS := comp.frags.StabLabel(s.Anc)
	fragT := comp.frags.StabLabel(t.Anc)
	if fragS == fragT {
		return append(dst, final), true, nil
	}
	if comp.closure[fragS] != comp.closure[fragT] {
		return dst, false, nil
	}
	plan, err := comp.route.plan(dst, sc, fragS, fragT, final)
	return plan, err == nil, err
}
