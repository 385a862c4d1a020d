package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/ancestry"
	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/rs"
	"repro/internal/sketch"
)

// Params configures Build.
type Params struct {
	// MaxFaults is the fault budget f ≥ 0 the labels must support.
	MaxFaults int
	// Kind selects the outdetect substrate; zero means KindDetNetFind.
	Kind Kind
	// Seed drives the randomized kinds (sampling hierarchy, AGM hashes).
	Seed int64
	// Threshold overrides the Reed–Solomon threshold k(f, m). Nil uses
	// hierarchy.DefaultThreshold (or SamplingThreshold for KindRandRS).
	// See DESIGN.md §3.4 for the practical-vs-theory trade-off.
	Threshold func(f, m int) int
	// AGMReps overrides the repetition count of KindAGM; zero picks
	// ⌈log₂ m⌉ (whp support). Full support scales this by f.
	AGMReps int
	// AuxSlack reserves that many extra preorder slots per original vertex
	// in the auxiliary tree T′'s ancestry numbering. Zero (the static
	// default) numbers densely; the dynamic update path (Dynamic) builds
	// with headroom so that new subdivision leaves can be attached without
	// renumbering. AuxSlack participates in the scheme token: gapped and
	// dense labelings of the same graph are different labelings and must
	// not mix.
	AuxSlack int
}

// Scheme holds the labels of one construction. The labels themselves are
// self-contained; Scheme only provides access, accounting, and test hooks.
type Scheme struct {
	params Params
	token  uint64
	gen    uint64 // generation stamp; 0 for static builds
	spec   OutSpec
	n      int
	g      *graph.Graph

	vertexLabels []VertexLabel
	edgeLabels   []EdgeLabel

	// lazy is non-nil exactly for schemes loaded from a snapshot, of any
	// version: labels live in the arena and are decoded on touch (vertex
	// labels once, edge labels on every read). Built and committed schemes
	// keep the materialized slices above.
	lazy *labelArena

	// Construction artifacts retained for experiments and white-box
	// tests, read-only. The decoder never touches them, but a loaded
	// scheme rebuilds its short edge labels from the hierarchy's level
	// lists (leafLabel).
	Forest    *graph.Forest
	Hierarchy *hierarchy.Hierarchy
}

// aux is the auxiliary graph G′ of §3.2: every non-tree edge e = (u, v) is
// subdivided by a fresh vertex x_e; the half (u, x_e) joins the spanning
// tree T′ (it is σ(e)) and the half (x_e, v) is the unique non-tree edge at
// x_e.
type aux struct {
	n        int // original vertex count
	forest   *graph.Forest
	tprime   *graph.Forest // spanning forest of G′ (Parent/Children/Roots/Comp only)
	anc      *ancestry.Labeling
	tour     *euler.Tour
	nonTree  []int // G edge indices of non-tree edges, ascending
	xVertex  []int // xVertex[j]: subdivision vertex of nonTree[j] in G′
	attachAt []int // attachAt[j]: the G-endpoint that parents x_e
	farEnd   []int // farEnd[j]: the other G-endpoint (reached by e′)
	// childOf[e] is the child-side T′ vertex of σ(e), for every G edge e.
	childOf []int
}

func buildAux(g *graph.Graph, f *graph.Forest, slack int) *aux {
	n := g.N()
	a := &aux{n: n, forest: f}
	for e := range g.Edges {
		if !f.IsTreeEdge[e] {
			a.nonTree = append(a.nonTree, e)
		}
	}
	nPrime := n + len(a.nonTree)
	tp := &graph.Forest{
		Parent:   make([]int, nPrime),
		Children: make([][]int, nPrime),
		Roots:    append([]int(nil), f.Roots...),
		Comp:     make([]int, nPrime),
	}
	copy(tp.Parent, f.Parent)
	copy(tp.Comp, f.Comp)
	for v := 0; v < n; v++ {
		tp.Children[v] = append([]int(nil), f.Children[v]...)
	}
	a.xVertex = make([]int, len(a.nonTree))
	a.attachAt = make([]int, len(a.nonTree))
	a.farEnd = make([]int, len(a.nonTree))
	for j, e := range a.nonTree {
		edge := g.Edges[e]
		x := n + j
		a.xVertex[j] = x
		a.attachAt[j] = edge.U
		a.farEnd[j] = edge.V
		tp.Parent[x] = edge.U
		tp.Comp[x] = f.Comp[edge.U]
		tp.Children[edge.U] = append(tp.Children[edge.U], x)
	}
	a.tprime = tp
	if slack > 0 {
		a.anc = ancestry.BuildWithSlack(tp, func(v int) int {
			if v < n {
				return slack
			}
			return 0 // subdivision vertices stay leaves forever
		})
	} else {
		a.anc = ancestry.Build(tp)
	}
	a.tour = euler.Build(tp)
	a.childOf = make([]int, g.M())
	for e, edge := range g.Edges {
		if f.IsTreeEdge[e] {
			// The child side is the endpoint whose forest parent is
			// the other endpoint.
			if f.Parent[edge.V] == edge.U {
				a.childOf[e] = edge.V
			} else {
				a.childOf[e] = edge.U
			}
		}
	}
	for j, e := range a.nonTree {
		a.childOf[e] = a.xVertex[j]
	}
	return a
}

// points returns the Euler-tour embedding of the non-tree edges of G′,
// tagged with G edge indices.
func (a *aux) points() []euler.Point {
	pts := make([]euler.Point, 0, len(a.nonTree))
	for j, e := range a.nonTree {
		x, y := a.tour.C[a.xVertex[j]], a.tour.C[a.farEnd[j]]
		if x > y {
			x, y = y, x
		}
		pts = append(pts, euler.Point{X: x, Y: y, Edge: e})
	}
	return pts
}

// idOf returns the GF(2^64) edge ID of non-tree slot j: the packed preorders
// of x_e and the far endpoint in T′.
func (a *aux) idOf(j int) uint64 {
	return edgeID(a.anc.Of(a.xVertex[j]).Pre, a.anc.Of(a.farEnd[j]).Pre)
}

// leafEdge is the one way to make the label of an edge e = (u, v) whose
// σ(e) child is a subdivision leaf x_e of T′ at preorder pre: every
// non-tree edge's, and an inserted edge's. Parent is u's ancestry label,
// Child the leaf, and the payload is the outdetect aggregate of x_e's
// subtree, which is x_e alone: the Reed–Solomon row of the edge's ID
// (edgeID(pre, farPre), farPre being v's preorder) on each hierarchy level
// that lists the edge, listed(lvl), and zero on the others; for AGM the
// sketch unit block of the ID. hdr supplies the label's Token, Gen,
// MaxFaults and Spec. The payload is written into out, which must hold
// spec.Words() words; with out nil the label has the header only.
func leafEdge(hdr EdgeLabel, parent ancestry.Label, pre, farPre uint32, listed func(lvl int) bool, out []uint64) EdgeLabel {
	l := hdr
	l.Parent = parent
	l.Child = ancestry.Label{Pre: pre, Post: pre, Root: parent.Root}
	l.Out = out
	if out == nil {
		return l
	}
	clear(out)
	id := edgeID(pre, farPre)
	spec := hdr.Spec
	if spec.Kind == KindAGM {
		sketch.Spec{Reps: spec.Reps, Buckets: spec.Buckets, Seed: spec.Seed}.AddEdge(out, id)
		return l
	}
	stride := spec.LevelWords()
	for lvl := 0; lvl < spec.Levels; lvl++ {
		if listed(lvl) {
			rs.PowerSums(out[lvl*stride:(lvl+1)*stride], id)
		}
	}
	return l
}

// leafLabel is leafEdge for edge e of s, built from the scheme's own data
// and the stored preorder pre: the header is the scheme's, Parent the
// vertex label of e's U endpoint, the far preorder V's, and the levels
// those of s.Hierarchy that list e. It reports false, and no label, when
// pre is 0 or an endpoint's vertex label does not carry the scheme token
// (a corrupt slot of a loaded scheme).
func (s *Scheme) leafLabel(e int, pre uint32, out []uint64) (EdgeLabel, bool) {
	ge := s.g.Edges[e]
	u, v := s.VertexLabel(ge.U), s.VertexLabel(ge.V)
	if pre == 0 || u.Token != s.token || v.Token != s.token {
		return EdgeLabel{}, false
	}
	hdr := EdgeLabel{Token: s.token, Gen: s.gen, MaxFaults: s.params.MaxFaults, Spec: s.spec}
	listed := func(lvl int) bool {
		_, found := slices.BinarySearch(s.Hierarchy.Levels[lvl], e)
		return found
	}
	return leafEdge(hdr, u.Anc, pre, v.Anc.Pre, listed, out), true
}

// Build constructs an f-FTC labeling scheme for g (Theorem 1 / Theorem 2).
func Build(g *graph.Graph, p Params) (*Scheme, error) {
	return buildWith(g, p, 0)
}

// buildWith is Build with an explicit generation stamp — the full-rebuild
// path of the dynamic update engine. gen is folded into the scheme token
// and stamped on every label; static builds pass 0.
func buildWith(g *graph.Graph, p Params, gen uint64) (*Scheme, error) {
	if g == nil {
		return nil, fmt.Errorf("core: nil graph")
	}
	if p.MaxFaults < 0 {
		return nil, fmt.Errorf("core: negative fault budget %d", p.MaxFaults)
	}
	if p.AuxSlack < 0 {
		return nil, fmt.Errorf("core: negative aux slack %d", p.AuxSlack)
	}
	if p.Kind == 0 {
		p.Kind = KindDetNetFind
	}
	f := graph.SpanningForest(g)
	a := buildAux(g, f, p.AuxSlack)
	m := g.M()
	if m < 2 {
		m = 2
	}

	spec := OutSpec{Kind: p.Kind, Seed: p.Seed}
	var levels *hierarchy.Hierarchy
	pts := a.points()
	switch p.Kind {
	case KindDetNetFind, KindDetGreedy, KindRandRS:
		k := 0
		switch {
		case p.Threshold != nil:
			k = p.Threshold(p.MaxFaults, m)
		case p.Kind == KindRandRS:
			k = hierarchy.SamplingThreshold(p.MaxFaults, g.N()+len(a.nonTree))
		default:
			k = hierarchy.DefaultThreshold(p.MaxFaults, m)
		}
		if k < 1 {
			k = 1
		}
		switch p.Kind {
		case KindDetNetFind:
			levels = hierarchy.BuildNetFind(pts, k)
		case KindDetGreedy:
			levels = hierarchy.BuildGreedy(pts, greedyGamma(m), k)
		case KindRandRS:
			levels = hierarchy.BuildSampling(pts, k, rand.New(rand.NewSource(p.Seed)))
		}
		spec.K = k
		spec.Levels = levels.Depth()
		if spec.Levels == 0 {
			// A tree has no non-tree edges; keep one empty level so
			// payload shapes stay nonzero and decoding is uniform.
			spec.Levels = 1
			levels = &hierarchy.Hierarchy{Levels: [][]int{nil}}
		}
	case KindAGM:
		spec.Buckets = sketch.DefaultBuckets(m)
		spec.Reps = p.AGMReps
		if spec.Reps == 0 {
			spec.Reps = defaultAGMReps(m)
		}
	default:
		return nil, fmt.Errorf("core: unknown scheme kind %d", p.Kind)
	}

	s := &Scheme{
		params:    p,
		gen:       gen,
		spec:      spec,
		n:         g.N(),
		g:         g,
		Forest:    f,
		Hierarchy: levels,
	}
	s.token = s.computeToken(g)
	s.buildLabels(g, a, levels)
	return s, nil
}

// greedyGamma is the rectangle weight of the greedy ε-net: ⌊log₂ m⌋ + 2.
func greedyGamma(m int) int {
	g := 2
	for v := m; v > 1; v /= 2 {
		g++
	}
	return g
}

func defaultAGMReps(m int) int {
	r := 1
	for v := m; v > 1; v /= 2 {
		r++
	}
	if r < 4 {
		r = 4
	}
	return r
}

// computeToken fingerprints the graph and construction parameters so that
// the decoder can reject mixed labels.
func (s *Scheme) computeToken(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		if _, err := h.Write(buf[:]); err != nil {
			panic("core: fnv write cannot fail: " + err.Error())
		}
	}
	put(uint64(g.N()))
	put(uint64(g.M()))
	for _, e := range g.Edges {
		put(uint64(e.U)<<32 | uint64(e.V))
	}
	put(uint64(s.params.MaxFaults))
	put(uint64(s.spec.Kind))
	put(uint64(s.spec.K))
	put(uint64(s.spec.Levels))
	put(uint64(s.spec.Reps))
	put(uint64(s.spec.Buckets))
	put(uint64(s.spec.Seed))
	if s.params.AuxSlack != 0 || s.gen != 0 {
		// Dynamic-network extension: the ancestry layout (slack) and the
		// generation both change the labeling, so both must change the
		// token. Static schemes keep the historical byte stream, so their
		// tokens — and every v1 snapshot — are unchanged.
		put(uint64(s.params.AuxSlack))
		put(s.gen)
	}
	return h.Sum64()
}

// buildWorkers caps the level-folding worker pool; 0 means GOMAXPROCS.
// It is a package variable only so the equivalence tests can force a
// specific pool size (1 = sequential reference, >1 = genuinely concurrent).
var buildWorkers int

// buildLabels computes every vertex and edge label: ancestry labels for
// vertices, and for each G edge the endpoint labels of σ(e) plus the
// outdetect subtree aggregate L^out(V_{T′}(σ(e))) of Proposition 4.
//
// The Reed–Solomon kinds run the construction hot path described in
// DESIGN.md §3.7: each non-tree edge's k odd powers are computed exactly
// once (one rs.PowerSums chain) into a shared read-only arena, and the
// per-level accumulate-and-fold passes — which write to disjoint
// Out[lvl*stride:] segments — run on a bounded worker pool with reusable
// per-worker scratch.
func (s *Scheme) buildLabels(g *graph.Graph, a *aux, levels *hierarchy.Hierarchy) {
	s.vertexLabels = make([]VertexLabel, g.N())
	for v := 0; v < g.N(); v++ {
		s.vertexLabels[v] = VertexLabel{Token: s.token, Gen: s.gen, Anc: a.anc.Of(v)}
	}
	words := s.spec.Words()
	s.edgeLabels = make([]EdgeLabel, g.M())
	// One contiguous slab backs every Out slice: a single large (page-
	// zeroed) allocation instead of m small ones, and sequential locality
	// for the per-level emission pass. Labels already share scheme storage
	// by contract (see EdgeLabel); marshaling copies.
	slab := make([]uint64, g.M()*words)
	for e := range g.Edges {
		child := a.childOf[e]
		parent := a.tprime.Parent[child]
		s.edgeLabels[e] = EdgeLabel{
			Token:     s.token,
			Gen:       s.gen,
			MaxFaults: s.params.MaxFaults,
			Spec:      s.spec,
			Parent:    a.anc.Of(parent),
			Child:     a.anc.Of(child),
			Out:       slab[e*words : (e+1)*words : (e+1)*words],
		}
	}

	nPrime := len(a.tprime.Parent)
	// preOrder[i] = vertex with preorder i+1; reverse iteration gives
	// children-before-parents, which makes the in-place subtree XOR work.
	// With aux slack the numbering has reserved gaps, marked -1 and skipped
	// by the fold.
	preOrder := make([]int, a.anc.MaxPre())
	for i := range preOrder {
		preOrder[i] = -1
	}
	for v := 0; v < nPrime; v++ {
		preOrder[a.anc.Of(v).Pre-1] = v
	}

	if s.spec.Kind == KindAGM {
		agm := sketch.Spec{Reps: s.spec.Reps, Buckets: s.spec.Buckets, Seed: s.spec.Seed}
		scr := newLevelScratch(nPrime, words)
		for j := range a.nonTree {
			id := a.idOf(j)
			agm.AddEdge(scr.block(a.xVertex[j]), id)
			agm.AddEdge(scr.block(a.farEnd[j]), id)
			scr.dirty[a.xVertex[j]] = true
			scr.dirty[a.farEnd[j]] = true
		}
		s.foldSubtrees(g, a, preOrder, scr, nil, 0)
		return
	}

	stride := s.spec.LevelWords()
	// slotOf[e] is the a.nonTree slot of non-tree G edge e (dense — the
	// map it replaces dominated the accumulate loop's cache profile).
	slotOf := make([]int, g.M())
	for j, e := range a.nonTree {
		slotOf[e] = j
	}
	// Only tree edges need the fold-based emission; non-tree labels are
	// written directly from the arena in runLevel.
	treeEdges := make([]int, 0, g.M()-len(a.nonTree))
	for e := range g.Edges {
		if s.Forest.IsTreeEdge[e] {
			treeEdges = append(treeEdges, e)
		}
	}
	// The power arena: powers[j*stride:(j+1)*stride] is the stored
	// Reed–Solomon row (α_j, α_j³, …, α_j^(2k−1)) of non-tree slot j. A
	// non-tree edge occupies every hierarchy level up to its drop-out
	// depth, so computing the row once here and XOR-folding it per level
	// replaces depth× redundant Horner chains with cheap vector XORs.
	powers := make([]uint64, len(a.nonTree)*stride)
	for j := range a.nonTree {
		rs.PowerSums(powers[j*stride:(j+1)*stride], a.idOf(j))
	}

	workers := buildWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(levels.Levels) {
		workers = len(levels.Levels)
	}
	if workers <= 1 {
		scr := newLevelScratch(nPrime, stride)
		for lvl, level := range levels.Levels {
			s.runLevel(g, a, preOrder, slotOf, treeEdges, powers, level, scr, lvl*stride)
		}
		return
	}
	// Levels are independent: level lvl reads the shared arena and writes
	// only the disjoint Out[lvl*stride:(lvl+1)*stride] segment of each
	// edge label, so a simple atomic work counter suffices.
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scr := newLevelScratch(nPrime, stride)
			for {
				lvl := int(next.Add(1)) - 1
				if lvl >= len(levels.Levels) {
					return
				}
				s.runLevel(g, a, preOrder, slotOf, treeEdges, powers, levels.Levels[lvl], scr, lvl*stride)
			}
		}()
	}
	wg.Wait()
}

// levelScratch is one worker's reusable accumulation state: a per-vertex
// payload buffer plus a dirty set so that folding, emission, and re-zeroing
// touch only the vertices a level actually reached — not all of O(n′·stride)
// per level, which is what the previous shared-buffer pipeline paid.
type levelScratch struct {
	acc    []uint64
	dirty  []bool
	stride int
}

func newLevelScratch(nPrime, stride int) *levelScratch {
	return &levelScratch{
		acc:    make([]uint64, nPrime*stride),
		dirty:  make([]bool, nPrime),
		stride: stride,
	}
}

// block returns vertex v's payload block.
func (scr *levelScratch) block(v int) []uint64 {
	return scr.acc[v*scr.stride : (v+1)*scr.stride]
}

// runLevel accumulates one hierarchy level's edge rows from the power arena
// and folds them into the dstOff segment of every edge label.
//
// The subdivision vertex x_e is a leaf touched only by its own edge e, so
// its subtree aggregate at this level is exactly e's row: it is copied
// straight into e's label segment and XORed into its T′ parent (what the
// fold would have done), and x_e's scratch block is never materialized.
func (s *Scheme) runLevel(g *graph.Graph, a *aux, preOrder, slotOf, treeEdges []int, powers []uint64, level []int, scr *levelScratch, dstOff int) {
	stride := scr.stride
	for _, e := range level {
		j := slotOf[e]
		row := powers[j*stride : (j+1)*stride]
		copy(s.edgeLabels[e].Out[dstOff:dstOff+stride], row)
		xorInto(scr.block(a.attachAt[j]), row)
		xorInto(scr.block(a.farEnd[j]), row)
		scr.dirty[a.attachAt[j]] = true
		scr.dirty[a.farEnd[j]] = true
	}
	s.foldSubtrees(g, a, preOrder, scr, treeEdges, dstOff)
}

// foldSubtrees turns per-vertex payload blocks into subtree aggregates in
// place (reverse preorder pushes each dirty vertex's block into its parent),
// copies each G edge's child-subtree block into the edge label at dstOff,
// then re-zeroes exactly the dirty blocks so the scratch is ready for the
// worker's next level. Vertices never marked dirty hold all-zero blocks, so
// skipping them leaves the (pre-zeroed) label segments untouched — the
// output is byte-identical to the dense pass.
//
// emit selects which G edges to copy out: the Reed–Solomon levels pass only
// tree edges (runLevel emits non-tree labels directly from the arena), the
// AGM path passes nil meaning all edges.
func (s *Scheme) foldSubtrees(g *graph.Graph, a *aux, preOrder []int, scr *levelScratch, emit []int, dstOff int) {
	stride := scr.stride
	for i := len(preOrder) - 1; i >= 0; i-- {
		v := preOrder[i]
		if v < 0 || !scr.dirty[v] {
			continue
		}
		p := a.tprime.Parent[v]
		if p < 0 {
			continue
		}
		xorInto(scr.block(p), scr.block(v))
		scr.dirty[p] = true
	}
	if emit == nil {
		for e := range g.Edges {
			child := a.childOf[e]
			if scr.dirty[child] {
				copy(s.edgeLabels[e].Out[dstOff:dstOff+stride], scr.block(child))
			}
		}
	} else {
		for _, e := range emit {
			child := a.childOf[e]
			if scr.dirty[child] {
				copy(s.edgeLabels[e].Out[dstOff:dstOff+stride], scr.block(child))
			}
		}
	}
	for v, d := range scr.dirty {
		if d {
			clear(scr.block(v))
			scr.dirty[v] = false
		}
	}
}

// xorInto folds src into dst elementwise (GF(2) vector addition), unrolled
// four-wide so the payload strides stream without per-element bounds
// checks.
func xorInto(dst, src []uint64) {
	for len(src) >= 4 && len(dst) >= 4 {
		dst[0] ^= src[0]
		dst[1] ^= src[1]
		dst[2] ^= src[2]
		dst[3] ^= src[3]
		dst, src = dst[4:], src[4:]
	}
	for w, x := range src {
		dst[w] ^= x
	}
}

// N returns the vertex count of the labeled graph.
func (s *Scheme) N() int { return s.n }

// Graph returns the labeled graph (read-only). It is retained for the
// application layers (edge-index resolution in the serving daemon) and for
// snapshotting; the decoder never touches it.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Spec returns the outdetect payload descriptor.
func (s *Scheme) Spec() OutSpec { return s.spec }

// MaxFaults returns the fault budget f.
func (s *Scheme) MaxFaults() int { return s.params.MaxFaults }

// Token returns the scheme fingerprint embedded in every label.
func (s *Scheme) Token() uint64 { return s.token }

// Generation returns the scheme's generation stamp: 0 for static builds,
// and the committed generation for schemes produced by a Dynamic network.
func (s *Scheme) Generation() uint64 { return s.gen }

// VertexLabel returns vertex v's label.
func (s *Scheme) VertexLabel(v int) VertexLabel {
	if s.lazy != nil {
		return s.lazy.vertex(v)
	}
	return s.vertexLabels[v]
}

// EdgeLabel returns edge e's label. For a built or committed scheme the
// Out slice is shared with the scheme's storage and must be treated as
// immutable; MarshalEdgeLabel / the public facade produce independent
// copies. A loaded scheme decodes the label on every call, or rebuilds it
// from a short slot, and keeps none of it.
func (s *Scheme) EdgeLabel(e int) EdgeLabel {
	if s.lazy != nil {
		return s.lazyEdge(e, true)
	}
	return s.edgeLabels[e]
}

// EdgeEnds returns the two ancestry labels of edge e's label, σ(e)'s
// Parent and Child: EdgeLabel(e)'s, zero for a poisoned one. A loaded
// scheme reads them from the label's header or rebuilds them from a short
// slot, and decodes no payload; the routing tables are compiled from
// them.
func (s *Scheme) EdgeEnds(e int) (parent, child ancestry.Label) {
	if s.lazy == nil {
		l := &s.edgeLabels[e]
		return l.Parent, l.Child
	}
	l := s.lazyEdge(e, false)
	return l.Parent, l.Child
}

// lazyEdge reads edge e of a loaded scheme: its slot decoded, or its label
// rebuilt when the slot is short. With payload false the label has the
// header only.
func (s *Scheme) lazyEdge(e int, payload bool) EdgeLabel {
	a := s.lazy
	pre, short := a.short(e)
	if !short {
		return a.edge(e, payload)
	}
	var out []uint64
	if payload {
		out = make([]uint64, s.spec.Words())
	}
	l, ok := s.leafLabel(e, pre, out)
	if !ok {
		return a.poisoned(e)
	}
	return l
}

// EdgeLabelsShared reports, in O(1), whether EdgeLabel's payloads share the
// scheme's storage (built and committed schemes) rather than being decoded
// afresh for each caller (loaded ones).
func (s *Scheme) EdgeLabelsShared() bool { return s.lazy == nil }

// ShortEdgeLabels reports how many edge labels the snapshot a scheme was
// loaded from stores short (SnapshotVersion 5): 0 for a built or committed
// scheme and for a scheme loaded from an earlier version.
func (s *Scheme) ShortEdgeLabels() int {
	if s.lazy == nil {
		return 0
	}
	return s.lazy.shortEdges()
}

// LazyLabels reports whether the scheme's labels live in a snapshot's
// label arena and, if so, how many vertex labels it holds decoded — the
// observability hook behind the lazy-load tests. Edge labels are never
// retained, so there is no edge count to report.
func (s *Scheme) LazyLabels() (lazy bool, verts int) {
	if s.lazy == nil {
		return false, 0
	}
	return true, s.lazy.resident()
}
