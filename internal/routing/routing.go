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
	"errors"
	"fmt"

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
// the scheme just to route.
type LabelSource interface {
	VertexLabel(v int) core.VertexLabel
	EdgeLabelByIndex(e int) core.EdgeLabel
}

// coreSource adapts *core.Scheme to LabelSource.
type coreSource struct{ s *core.Scheme }

func (c coreSource) VertexLabel(v int) core.VertexLabel    { return c.s.VertexLabel(v) }
func (c coreSource) EdgeLabelByIndex(e int) core.EdgeLabel { return c.s.EdgeLabel(e) }

// portEntry is one local-table row: the edge's port (adjacency index), the
// subtree interval it leads to (tree edges), or the virtual subdivision
// vertex preorder identifying it (non-tree edges).
type portEntry struct {
	port int
	// Tree port: interval of the child subtree in T′ (only meaningful
	// when down is true; the parent port has down == false).
	lo, hi uint32
	down   bool
	// Non-tree port: preorder of the edge's virtual vertex x_e.
	virtual uint32
}

// nodeTable is one node's routing state.
type nodeTable struct {
	self       ancestry.Label
	parentPort int
	tree       []portEntry
	virtuals   map[uint32]int // x_e preorder → port
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
// vertex indexing) or the tables are garbage. Each edge label is read once:
// its two ancestry labels are all the tables need, and both endpoints'
// entries are filled from them.
func NewFromLabels(g *graph.Graph, src LabelSource) *Network {
	net := &Network{g: g, src: src, tables: make([]nodeTable, g.N())}
	for v := 0; v < g.N(); v++ {
		net.tables[v] = nodeTable{
			self:       src.VertexLabel(v).Anc,
			parentPort: -1,
			virtuals:   map[uint32]int{},
		}
	}
	type ends struct{ parent, child ancestry.Label }
	edges := make([]ends, g.M())
	for e := range edges {
		el := src.EdgeLabelByIndex(e)
		edges[e] = ends{el.Parent, el.Child}
	}
	for v := 0; v < g.N(); v++ {
		tab := &net.tables[v]
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
				tab.tree = append(tab.tree, portEntry{
					port: port, lo: el.child.Pre, hi: el.child.Post, down: true,
				})
			case el.child == vAnc:
				tab.parentPort = port
			default:
				// Non-tree edge: the child is the virtual x_e.
				tab.virtuals[el.child.Pre] = port
				if el.parent == vAnc {
					// v owns x_e as a virtual child: tree-routing
					// toward x_e terminates here.
					tab.tree = append(tab.tree, portEntry{
						port: port, lo: el.child.Pre, hi: el.child.Post,
						down: true, virtual: el.child.Pre,
					})
				}
			}
		}
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
	faultSet := make(map[int]bool, len(faults))
	for i, e := range faults {
		fl[i] = n.src.EdgeLabelByIndex(e)
		faultSet[e] = true
	}
	plan, ok, err := core.RoutePlan(n.src.VertexLabel(s), n.src.VertexLabel(t), fl)
	if err != nil {
		return nil, false, fmt.Errorf("routing: plan: %w", err)
	}
	if !ok {
		return nil, false, nil
	}
	return n.Execute(s, t, plan, func(e int) bool { return faultSet[e] })
}

// Execute runs a precomputed route plan through the packet simulator:
// hop-by-hop forwarding from s toward t, crossing the plan's non-tree
// edges, with forbidden reporting which edge indices the packet must not
// traverse. The plan must have been computed against the same labeling the
// tables were compiled from (the serve layer guarantees this by
// generation-stamping plans). Returns the vertex path traversed and
// whether t was reached; an error indicates a scheme malfunction.
func (n *Network) Execute(s, t int, plan []core.RouteStep, forbidden func(e int) bool) ([]int, bool, error) {
	path := []int{s}
	cur := s
	hopLimit := 6*n.g.N() + 16*len(plan) + 64
	for _, step := range plan {
		for {
			if len(path) > hopLimit {
				return path, false, fmt.Errorf("%w: hop limit exceeded (loop?)", ErrRouting)
			}
			tab := &n.tables[cur]
			// Crossing condition (b): we are at the real endpoint Near
			// and the step names a virtual edge to cross.
			if tab.self.Pre == step.Near {
				if step.Far == 0 {
					break // arrived at destination
				}
				port, okPort := tab.virtuals[step.Far]
				if !okPort {
					return path, false, fmt.Errorf("%w: node %d has no port for virtual %d", ErrRouting, cur, step.Far)
				}
				cur = n.hop(cur, port, forbidden, &path)
				if cur < 0 {
					return path, false, fmt.Errorf("%w: crossing used a forbidden edge", ErrRouting)
				}
				break
			}
			// Crossing condition (a): we own the virtual child Near.
			if port, okPort := tab.virtuals[step.Near]; okPort && n.ownsVirtual(cur, step.Near) {
				cur = n.hop(cur, port, forbidden, &path)
				if cur < 0 {
					return path, false, fmt.Errorf("%w: crossing used a forbidden edge", ErrRouting)
				}
				break
			}
			// Otherwise forward along the tree toward Near.
			port := n.treePort(cur, step.Near)
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

// ownsVirtual reports whether node v is the T′ parent of virtual vertex with
// preorder p (vs merely being the far endpoint of that non-tree edge).
func (n *Network) ownsVirtual(v int, p uint32) bool {
	for _, pe := range n.tables[v].tree {
		if pe.down && pe.virtual == p {
			return true
		}
	}
	return false
}

// treePort picks the port toward preorder target: a child whose interval
// contains it, else the parent.
func (n *Network) treePort(v int, target uint32) int {
	tab := &n.tables[v]
	for _, pe := range tab.tree {
		if pe.down && pe.lo <= target && target <= pe.hi {
			return pe.port
		}
	}
	return tab.parentPort
}

// hop moves the packet across the given port, rejecting forbidden edges.
func (n *Network) hop(cur, port int, forbidden func(e int) bool, path *[]int) int {
	half := n.g.Adj(cur)[port]
	if forbidden(half.Edge) {
		return -1
	}
	*path = append(*path, half.To)
	return half.To
}
