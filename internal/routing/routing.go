// Package routing implements the fault-tolerant (forbidden-set) compact
// routing scheme of Corollary 2 and a hop-by-hop packet simulator for it.
//
// Model: every node stores a compact local table (its own T′ ancestry label
// plus one interval/port entry per incident edge — O(deg·log n) bits, all
// compiled from labels). A source that knows the labels of the forbidden
// edge set F computes a route plan with core.RoutePlan: a sequence of
// fragment crossings extracted from the FTC query's own merge structure.
// Packets carry the plan (O(|F|·log n) bits); each node forwards greedily
// along the spanning tree toward the current waypoint and performs the
// non-tree crossings the plan dictates. Within a fragment, tree routing
// never meets a faulty edge — fragments are exactly the tree components of
// T − F — so the packet provably avoids F.
package routing

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/graph"
)

// ErrRouting is returned when the simulator detects a malfunction (packet
// loop, crossing a forbidden edge, missing port). These indicate bugs, not
// expected runtime conditions.
var ErrRouting = errors.New("routing: forwarding failed")

// LabelSource supplies the labels the routing tables are compiled from.
// *core.Scheme (via Build) and the serve layer's scheme both satisfy it,
// which is how the daemon reuses its existing labels instead of rebuilding
// the scheme just to route. The tables need only each edge's two ancestry
// labels, EdgeEnds; Route reads whole fault labels, EdgeLabelByIndex.
type LabelSource interface {
	VertexLabel(v int) core.VertexLabel
	EdgeLabelByIndex(e int) core.EdgeLabel
	EdgeEnds(e int) (parent, child ancestry.Label)
}

// coreSource adapts *core.Scheme to LabelSource.
type coreSource struct{ s *core.Scheme }

func (c coreSource) VertexLabel(v int) core.VertexLabel    { return c.s.VertexLabel(v) }
func (c coreSource) EdgeLabelByIndex(e int) core.EdgeLabel { return c.s.EdgeLabel(e) }
func (c coreSource) EdgeEnds(e int) (parent, child ancestry.Label) {
	return c.s.EdgeEnds(e)
}

// childEntry is one child row of a local table: the port (adjacency index)
// of the tree edge to a child of T′ and the preorder interval of that
// child's subtree. A virtual child is the subdivision vertex x_e of a
// non-tree edge the node owns: a leaf whose port is the non-tree edge.
type childEntry struct {
	lo, hi  uint32
	port    int
	virtual bool
}

// virtualPort is the port of one incident non-tree edge, keyed by the
// preorder of its virtual vertex x_e.
type virtualPort struct {
	pre  uint32
	port int
}

// nodeTable is one node's routing state. Both slices are sorted by
// preorder, so each forwarding decision is one binary search.
type nodeTable struct {
	self       ancestry.Label
	parentPort int
	tree       []childEntry  // by lo; child intervals are disjoint
	virtuals   []virtualPort // by pre
}

// child returns the index of the child entry whose interval holds pre, or
// -1 when pre lies outside every child subtree.
func (tab *nodeTable) child(pre uint32) int {
	i, found := slices.BinarySearchFunc(tab.tree, pre, func(c childEntry, p uint32) int { return cmp.Compare(c.lo, p) })
	if found {
		return i
	}
	if i > 0 && pre <= tab.tree[i-1].hi {
		return i - 1
	}
	return -1
}

// virtualPortOf returns the port of the non-tree edge whose virtual vertex
// has preorder pre, or -1 when no incident edge has it.
func (tab *nodeTable) virtualPortOf(pre uint32) int {
	i, found := slices.BinarySearchFunc(tab.virtuals, pre, func(v virtualPort, p uint32) int { return cmp.Compare(v.pre, p) })
	if !found {
		return -1
	}
	return tab.virtuals[i].port
}

// Network is a compiled routing network over a graph.
type Network struct {
	g      *graph.Graph
	scheme *core.Scheme // nil when built via NewFromLabels
	src    LabelSource
	tables []nodeTable
}

// Build compiles routing tables for g with fault budget f. The FTC labels
// are built with the deterministic scheme.
func Build(g *graph.Graph, f int) (*Network, error) {
	s, err := core.Build(g, core.Params{MaxFaults: f})
	if err != nil {
		return nil, fmt.Errorf("routing: %w", err)
	}
	net := NewFromLabels(g, coreSource{s})
	net.scheme = s
	return net, nil
}

// NewFromLabels compiles routing tables for g from an existing labeling —
// no scheme construction. src must label the same graph (same edge and
// vertex indexing) or the tables are garbage. Each edge's two ancestry
// labels are read once, through EdgeEnds, and no payload: they are all the
// tables need, and both endpoints' entries are filled from them. Every edge gives exactly one child row (at
// the tree parent, or at the owner of x_e) and a non-tree edge one virtual
// row at each endpoint, so all tables share two backing arrays sized up
// front.
func NewFromLabels(g *graph.Graph, src LabelSource) *Network {
	net := &Network{g: g, src: src, tables: make([]nodeTable, g.N())}
	for v := 0; v < g.N(); v++ {
		net.tables[v] = nodeTable{self: src.VertexLabel(v).Anc, parentPort: -1}
	}
	type ends struct{ parent, child ancestry.Label }
	edges := make([]ends, g.M())
	nonTree := 0
	for e := range edges {
		parent, child := src.EdgeEnds(e)
		edges[e] = ends{parent, child}
		ge := g.Edges[e]
		if child != net.tables[ge.U].self && child != net.tables[ge.V].self {
			nonTree++
		}
	}
	children := make([]childEntry, 0, g.M())
	virtuals := make([]virtualPort, 0, 2*nonTree)
	for v := 0; v < g.N(); v++ {
		tab := &net.tables[v]
		c0, v0 := len(children), len(virtuals)
		for port, half := range g.Adj(v) {
			el := edges[half.Edge]
			// Tree edge of T′ between two real vertices ⇔ the child
			// label is a real vertex's label, i.e. matches one of the
			// two endpoints' ancestry labels.
			vAnc := tab.self
			uAnc := net.tables[half.To].self
			switch {
			case el.child == uAnc:
				// Edge descends from v to half.To.
				children = append(children, childEntry{lo: el.child.Pre, hi: el.child.Post, port: port})
			case el.child == vAnc:
				tab.parentPort = port
			default:
				// Non-tree edge: the child is the virtual x_e.
				virtuals = append(virtuals, virtualPort{pre: el.child.Pre, port: port})
				if el.parent == vAnc {
					// v owns x_e as a virtual child: tree-routing
					// toward x_e terminates here.
					children = append(children, childEntry{lo: el.child.Pre, hi: el.child.Post, port: port, virtual: true})
				}
			}
		}
		tab.tree = children[c0:len(children):len(children)]
		tab.virtuals = virtuals[v0:len(virtuals):len(virtuals)]
		slices.SortFunc(tab.tree, func(a, b childEntry) int { return cmp.Compare(a.lo, b.lo) })
		slices.SortFunc(tab.virtuals, func(a, b virtualPort) int { return cmp.Compare(a.pre, b.pre) })
	}
	return net
}

// Scheme exposes the underlying FTC labeling when the network was compiled
// by Build (nil for NewFromLabels networks — the caller already owns the
// labels in that case).
func (n *Network) Scheme() *core.Scheme { return n.scheme }

// TableBits returns the total and maximum per-node routing-table sizes in
// bits — the Corollary 2 metrics.
func (n *Network) TableBits() (total, maxLocal int) {
	for v := range n.tables {
		tab := &n.tables[v]
		bits := 96 // self label
		bits += 32 // parent port
		bits += len(tab.tree) * (32 + 64 + 32 + 1)
		bits += len(tab.virtuals) * (32 + 32)
		total += bits
		if bits > maxLocal {
			maxLocal = bits
		}
	}
	return total, maxLocal
}

// Route delivers a packet from s to t avoiding the forbidden edge set
// (edge indices into the graph). It returns the vertex path traversed and
// whether t is reachable; an error indicates a scheme malfunction.
func (n *Network) Route(s, t int, faults []int) ([]int, bool, error) {
	fl := make([]core.EdgeLabel, len(faults))
	for i, e := range faults {
		fl[i] = n.src.EdgeLabelByIndex(e)
	}
	plan, ok, err := core.RoutePlan(n.src.VertexLabel(s), n.src.VertexLabel(t), fl)
	if err != nil {
		return nil, false, fmt.Errorf("routing: plan: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	forbidden := slices.Clone(faults)
	slices.Sort(forbidden)
	return n.Execute(nil, s, t, plan, forbidden)
}

// Execute runs a precomputed route plan through the packet simulator:
// hop-by-hop forwarding from s toward t, crossing the plan's non-tree
// edges, never traversing an edge index in forbidden (sorted ascending).
// The plan must have been computed against the same labeling the tables
// were compiled from (the serve layer guarantees this by
// generation-stamping plans). The vertex path traversed is appended onto
// dst, and the result reports whether t was reached; an error indicates a
// scheme malfunction. Each hop is one binary search of the current node's
// table, so a caller that reuses dst forwards without allocating.
func (n *Network) Execute(dst []int, s, t int, plan []core.RouteStep, forbidden []int) ([]int, bool, error) {
	path := append(dst, s)
	start := len(dst)
	cur := s
	hopLimit := 6*n.g.N() + 16*len(plan) + 64
	for _, step := range plan {
		for {
			if len(path)-start > hopLimit {
				return path, false, fmt.Errorf("%w: hop limit exceeded (loop?)", ErrRouting)
			}
			tab := &n.tables[cur]
			// Crossing condition (b): we are at the real endpoint Near
			// and the step names a virtual edge to cross.
			if tab.self.Pre == step.Near {
				if step.Far == 0 {
					break // arrived at destination
				}
				port := tab.virtualPortOf(step.Far)
				if port < 0 {
					return path, false, fmt.Errorf("%w: node %d has no port for virtual %d", ErrRouting, cur, step.Far)
				}
				if cur = n.hop(cur, port, forbidden, &path); cur < 0 {
					return path, false, fmt.Errorf("%w: crossing used a forbidden edge", ErrRouting)
				}
				break
			}
			port := tab.parentPort
			if i := tab.child(step.Near); i >= 0 {
				c := tab.tree[i]
				// Crossing condition (a): we own the virtual child Near.
				if c.virtual && c.lo == step.Near {
					if cur = n.hop(cur, c.port, forbidden, &path); cur < 0 {
						return path, false, fmt.Errorf("%w: crossing used a forbidden edge", ErrRouting)
					}
					break
				}
				port = c.port
			}
			// Otherwise forward along the tree toward Near: down into the
			// child subtree that holds it, else up.
			if port < 0 {
				return path, false, fmt.Errorf("%w: node %d cannot route toward %d", ErrRouting, cur, step.Near)
			}
			next := n.hop(cur, port, forbidden, &path)
			if next < 0 {
				return path, false, fmt.Errorf("%w: tree forwarding met a forbidden edge toward %d", ErrRouting, step.Near)
			}
			cur = next
		}
	}
	if cur != t {
		return path, false, fmt.Errorf("%w: terminated at %d, want %d", ErrRouting, cur, t)
	}
	return path, true, nil
}

// hop moves the packet across the given port, rejecting forbidden edges.
func (n *Network) hop(cur, port int, forbidden []int, path *[]int) int {
	half := n.g.Adj(cur)[port]
	if _, found := slices.BinarySearch(forbidden, half.Edge); found {
		return -1
	}
	*path = append(*path, half.To)
	return half.To
}
