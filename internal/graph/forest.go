package graph

// Forest is a rooted spanning forest of a graph: one rooted tree per
// connected component. It fixes the tree T that the whole labeling framework
// is built around (paper §3).
type Forest struct {
	// Parent[v] is v's parent vertex, or -1 for roots.
	Parent []int
	// ParentEdge[v] is the index (into Graph.Edges) of the edge to the
	// parent, or -1 for roots.
	ParentEdge []int
	// Roots lists the root of each component in discovery order.
	Roots []int
	// Comp[v] is the index into Roots of v's component.
	Comp []int
	// IsTreeEdge[e] reports whether edge e belongs to the forest.
	IsTreeEdge []bool
	// Children[v] lists v's children in deterministic (insertion) order.
	Children [][]int
	// BFSOrder lists vertices in BFS discovery order (roots first per
	// component); every vertex appears after its parent.
	BFSOrder []int
}

// SpanningForest builds a BFS spanning forest of g. BFS keeps tree depth at
// most the diameter, which matters for the CONGEST construction (§8) and
// keeps fragment structures shallow.
func SpanningForest(g *Graph) *Forest {
	n := g.N()
	f := &Forest{
		Parent:     make([]int, n),
		ParentEdge: make([]int, n),
		Comp:       make([]int, n),
		IsTreeEdge: make([]bool, g.M()),
		Children:   make([][]int, n),
		BFSOrder:   make([]int, 0, n),
	}
	for v := range f.Parent {
		f.Parent[v] = -1
		f.ParentEdge[v] = -1
		f.Comp[v] = -1
	}
	queue := make([]int, 0, n)
	for r := 0; r < n; r++ {
		if f.Comp[r] != -1 {
			continue
		}
		comp := len(f.Roots)
		f.Roots = append(f.Roots, r)
		f.Comp[r] = comp
		queue = queue[:0]
		queue = append(queue, r)
		f.BFSOrder = append(f.BFSOrder, r)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, h := range g.Adj(u) {
				if f.Comp[h.To] != -1 {
					continue
				}
				f.Comp[h.To] = comp
				f.Parent[h.To] = u
				f.ParentEdge[h.To] = h.Edge
				f.IsTreeEdge[h.Edge] = true
				f.Children[u] = append(f.Children[u], h.To)
				f.BFSOrder = append(f.BFSOrder, h.To)
				queue = append(queue, h.To)
			}
		}
	}
	return f
}
