package core

// This file gives the compiled FaultSet the route product: RoutePlan is the
// compiled-once counterpart of the one-shot RoutePlan in route.go, exactly
// as FaultSet.Connected is the compiled counterpart of the one-shot
// Connected. The component's one closure run (ensureClosed) records its
// crossing structure, and every plan walks it (crossGraph.plan, shared with
// the one-shot planner) over at most f+1 fragments — no label decoding, and
// none at all on a component that probes have already closed.
// AppendRoutePlan is the same product for a caller that pools the plan and
// the BFS scratch.

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
// allocating. The first probe or plan that touches a component closes it
// and records its crossing structure; after that a plan costs two interval
// stabs plus a BFS over ≤ f+1 fragments. On an unreachable pair or an error
// dst comes back unextended.
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
	if err := comp.ensureClosed(); err != nil {
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
