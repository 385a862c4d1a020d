package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/ancestry"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/rs"
	"repro/internal/sketch"
)

// Dynamic is the construction-side engine behind the mutable network API:
// it maintains a labeling scheme under batched edge insertions and
// deletions, recomputing only what an update dirties.
//
// Every commit produces a fresh immutable *Scheme (copy-on-write: label
// headers are re-stamped, but only labels whose content actually changed
// get new payload storage), so readers holding the previous generation keep
// a fully consistent view and generations can be swapped atomically by the
// caller. Dynamic itself is not safe for concurrent use; the public
// ftc.Network wrapper serializes commits and publishes schemes atomically.
//
// The incremental fast path applies to updates that leave the spanning
// forest intact — inserting an edge whose endpoints are already connected,
// or deleting a non-tree edge. Such an update touches exactly the labels of
// the tree edges on the two endpoint-to-LCA paths (whose subtree aggregates
// gain or lose the edge's outdetect row; GF(2) linearity makes deletion the
// same XOR as insertion) plus the updated edge itself; the commit computes
// those changes as its GenDelta and builds the new scheme from it exactly
// as a replica's ApplyDelta does. Everything else —
// component merges, tree-edge deletions, per-vertex slot exhaustion, or
// churn past the hierarchy's invalidation budget — falls back to a full
// (parallel) rebuild, which also resets the budget.
type Dynamic struct {
	params Params
	gen    uint64
	cur    *Scheme

	// churn counts incremental updates absorbed since the last full
	// rebuild; the hierarchy invalidation predicate bounds it.
	churn int
	// builtM is the edge count the current AGM sketch shape was sized for.
	builtM int

	// Subdivision-slot allocator over the reserved preorder blocks of the
	// current ancestry numbering. Vertex v's block is the AuxSlack slots
	// just below its Post; resNext[v] is the next never-used slot
	// (0 = not yet initialized from the label), freed[v] stacks recycled
	// slots. Reset on every full rebuild.
	resNext []uint32
	freed   map[int][]uint32
}

// DefaultAuxSlack is the per-vertex preorder headroom a Dynamic reserves
// when Params.AuxSlack is unset: up to that many incrementally-inserted
// edges can attach at any one vertex between full rebuilds.
const DefaultAuxSlack = 8

// Update is one staged mutation of the edge set.
type Update struct {
	Add  bool // true = insert {U, V}, false = delete {U, V}
	U, V int
}

// CommitReport describes one committed batch.
type CommitReport struct {
	// Gen is the generation the commit produced; Token the scheme token
	// every label of that generation is stamped with.
	Gen   uint64
	Token uint64
	// Incremental reports whether the fast path applied; Reason names the
	// fallback trigger when it did not.
	Incremental bool
	Reason      string
	// Relabeled lists the post-commit indices of edges whose label content
	// changed beyond the token/generation restamp: the dirtied tree-path
	// edges plus the inserted edges. nil with Incremental == false means
	// every label was rebuilt.
	Relabeled []int
	// Removed lists the pre-commit indices of deleted edges, ascending.
	Removed []int
	// Remap maps every pre-commit edge index to its post-commit index
	// (-1 for deleted edges); nil when indices did not shift.
	Remap []int
}

// NewDynamic builds the initial scheme (generation 1) for g. Params are as
// for Build; AuxSlack defaults to DefaultAuxSlack.
func NewDynamic(g *graph.Graph, p Params) (*Dynamic, error) {
	if p.AuxSlack == 0 {
		p.AuxSlack = DefaultAuxSlack
	}
	s, err := buildWith(g, p, 1)
	if err != nil {
		return nil, err
	}
	return &Dynamic{
		params:  s.params, // defaults resolved by buildWith
		gen:     1,
		cur:     s,
		builtM:  g.M(),
		resNext: make([]uint32, g.N()),
		freed:   map[int][]uint32{},
	}, nil
}

// Scheme returns the current immutable scheme. Schemes returned before the
// latest Commit stay valid and internally consistent; mixing their labels
// with newer generations fails with ErrStaleLabel.
func (d *Dynamic) Scheme() *Scheme { return d.cur }

// Generation returns the current generation (1 after NewDynamic).
func (d *Dynamic) Generation() uint64 { return d.gen }

// Churn returns the incremental updates absorbed since the last rebuild.
func (d *Dynamic) Churn() int { return d.churn }

// slotBlock returns vertex v's reserved preorder block [lo, hi].
func (d *Dynamic) slotBlock(v int) (lo, hi uint32) {
	post := d.cur.vertexLabels[v].Anc.Post
	return post - uint32(d.params.AuxSlack) + 1, post
}

// plan is the validated, classified form of one batch: every update
// resolved against the evolving edge set, with subdivision slots
// pre-assigned for insertions so the apply phase cannot fail. (Deletions
// need no slot here: the apply phase reads the freed slot off the edge's
// own label.)
type plan struct {
	ops    []Update
	slots  []uint32 // per add op: the assigned subdivision slot
	reason string   // non-empty forces a full rebuild
	// alloc is the per-vertex allocator state after the batch's inserts,
	// adopted by the apply phase once nothing can fail.
	alloc map[int]*slotAlloc
}

// slotAlloc is one vertex's subdivision-slot allocator position: the
// length its committed free stack is popped down to, and its next
// never-used slot.
type slotAlloc struct {
	freeLeft int
	next     uint32
}

// classify validates the batch and decides incremental vs rebuild. It
// mutates nothing.
func (d *Dynamic) classify(batch []Update) (*plan, error) {
	p := &plan{ops: batch, slots: make([]uint32, len(batch)), alloc: map[int]*slotAlloc{}}
	g := d.cur.g
	forest := d.cur.Forest
	n := g.N()
	// Evolving overlay over the committed edge set: +1 added, -1 removed.
	overlay := map[graph.Edge]int8{}
	// Edges added earlier in this batch (whether or not a slot was
	// assigned — a demoted plan stops assigning), for remove-after-add.
	batchAdded := map[graph.Edge]bool{}
	// Per-vertex allocator simulation: recycled slots are popped LIFO off
	// the committed free stack, then never-used slots are taken in order.
	// Slots freed by removes in this same batch become available only at
	// the next commit.
	getSim := func(v int) *slotAlloc {
		a := p.alloc[v]
		if a == nil {
			next := d.resNext[v]
			if next == 0 {
				next, _ = d.slotBlock(v)
			}
			a = &slotAlloc{freeLeft: len(d.freed[v]), next: next}
			p.alloc[v] = a
		}
		return a
	}
	demote := func(reason string) {
		if p.reason == "" {
			p.reason = reason
		}
	}
	for i, op := range batch {
		u, v := op.U, op.V
		if u > v {
			u, v = v, u
		}
		if u < 0 || v >= n {
			return nil, fmt.Errorf("core: update %d: endpoint out of range (%d,%d) with n=%d", i, op.U, op.V, n)
		}
		if u == v {
			return nil, fmt.Errorf("core: update %d: self-loop at %d", i, u)
		}
		e := graph.Edge{U: u, V: v}
		live := g.HasEdge(u, v)
		if o := overlay[e]; o > 0 {
			live = true
		} else if o < 0 {
			live = false
		}
		if op.Add {
			if live {
				return nil, fmt.Errorf("core: update %d: edge (%d,%d) already present", i, u, v)
			}
			overlay[e]++
			batchAdded[e] = true
			if forest.Comp[u] != forest.Comp[v] {
				demote(fmt.Sprintf("edge (%d,%d) merges two components", u, v))
				continue
			}
			// Simulate the slot allocator at the attach vertex u (= min).
			a := getSim(u)
			if a.freeLeft > 0 {
				a.freeLeft--
				p.slots[i] = d.freed[u][a.freeLeft]
			} else {
				_, hi := d.slotBlock(u)
				if a.next > hi {
					demote(fmt.Sprintf("vertex %d out of subdivision slots", u))
					continue
				}
				p.slots[i] = a.next
				a.next++
			}
		} else {
			if !live {
				return nil, fmt.Errorf("core: update %d: no edge (%d,%d) to remove", i, u, v)
			}
			overlay[e]--
			if batchAdded[e] {
				continue // added earlier in this batch: non-tree by construction
			}
			idx := g.EdgeIndex(u, v)
			if forest.IsTreeEdge[idx] {
				demote(fmt.Sprintf("edge (%d,%d) is a spanning-tree edge", u, v))
				continue
			}
		}
	}
	if p.reason != "" {
		return p, nil
	}
	// Kind-specific invalidation predicate.
	switch d.cur.spec.Kind {
	case KindAGM:
		// The sketch shape (buckets, reps) was sized for builtM edges;
		// rebuild once the live edge count drifts past ±25%.
		newM := g.M()
		for _, o := range overlay {
			newM += int(o)
		}
		if 4*newM < 3*d.builtM || 4*newM > 5*d.builtM {
			demote(fmt.Sprintf("edge count drifted to %d (sketch sized for %d)", newM, d.builtM))
		}
	default:
		if d.cur.Hierarchy.Invalidated(d.churn, len(batch), d.cur.spec.K) {
			demote(fmt.Sprintf("churn %d+%d exceeds hierarchy budget %d",
				d.churn, len(batch), hierarchy.UpdateBudget(d.cur.spec.K)))
		}
	}
	return p, nil
}

// Commit applies a batch of updates and returns the new generation's
// scheme together with its GenDelta, the record a replica replays to
// reach it. On error, no state changes. An empty batch is a no-op that
// returns the current scheme unchanged and a nil delta — there is no
// generation change to ship.
func (d *Dynamic) Commit(batch []Update) (*CommitReport, *GenDelta, *Scheme, error) {
	if len(batch) == 0 {
		return &CommitReport{Gen: d.gen, Token: d.cur.token, Incremental: true}, nil, d.cur, nil
	}
	p, err := d.classify(batch)
	if err != nil {
		return nil, nil, nil, err
	}
	if p.reason != "" {
		return d.rebuild(batch, p.reason)
	}
	return d.applyIncremental(p)
}

// rebuild is the fallback path: replay the batch onto a graph clone and
// run the full (parallel) construction pipeline at the next generation.
// Its delta is a Full marker.
func (d *Dynamic) rebuild(batch []Update, reason string) (*CommitReport, *GenDelta, *Scheme, error) {
	r, err := replayOps(d.cur, batch)
	if err != nil {
		// classify has validated the batch, so this is internal.
		return nil, nil, nil, fmt.Errorf("core: internal: replaying a validated batch: %v", err)
	}
	s, err := buildWith(r.g, d.params, d.gen+1)
	if err != nil {
		return nil, nil, nil, err
	}
	rep := &CommitReport{
		Gen:     d.gen + 1,
		Token:   s.token,
		Reason:  reason,
		Removed: r.removed,
		Remap:   r.remap,
	}
	delta := &GenDelta{
		PrevGen: d.gen,
		Gen:     rep.Gen,
		Token:   rep.Token,
		Full:    true,
		Reason:  reason,
		Ops:     append([]Update(nil), batch...),
	}
	d.gen++
	d.cur = s
	d.churn = 0
	d.builtM = r.g.M()
	d.resNext = make([]uint32, r.g.N())
	d.freed = map[int][]uint32{}
	return rep, delta, s, nil
}

// applyIncremental runs the fast path for a fully incremental plan. It
// computes only the generation's delta — per dirtied tree edge the XOR of
// the rows the batch adds or removes below it, per surviving insert a
// fresh label — and builds the next scheme from it through the replay and
// label assembly ApplyDelta runs.
func (d *Dynamic) applyIncremental(p *plan) (*CommitReport, *GenDelta, *Scheme, error) {
	old := d.cur
	spec := old.spec
	words := spec.Words()
	stride := spec.LevelWords()
	agm := sketch.Spec{Reps: spec.Reps, Buckets: spec.Buckets, Seed: spec.Seed}
	// rowFor computes the outdetect contribution of one edge id: the
	// Reed–Solomon power row (one hierarchy-level segment) or the AGM
	// sketch unit block (the full payload).
	rowFor := func(id uint64) []uint64 {
		if spec.Kind == KindAGM {
			blk := make([]uint64, words)
			agm.AddEdge(blk, id)
			return blk
		}
		row := make([]uint64, stride)
		rs.PowerSums(row, id)
		return row
	}

	// masks accumulates each dirtied tree edge's XOR mask under its child
	// vertex: incremental commits never move the tree, so the child names
	// the same edge before and after the commit's index shifts.
	masks := map[int][]uint64{}
	// xorPath folds row into the segment at off of the mask of every tree
	// edge on the w → LCA(w, other) path.
	xorPath := func(w, other int, row []uint64, off int) {
		for !old.VertexLabel(w).Anc.IsAncestorOf(old.VertexLabel(other).Anc) {
			mask := masks[w]
			if mask == nil {
				mask = make([]uint64, words)
				masks[w] = mask
			}
			xorInto(mask[off:off+len(row)], row)
			w = old.Forest.Parent[w]
		}
	}
	// xorPaths covers both endpoint-to-LCA paths: the tree edges whose
	// child subtree contains exactly one of u and v.
	xorPaths := func(u, v int, row []uint64, off int) {
		xorPath(u, v, row, off)
		xorPath(v, u, row, off)
	}

	type insert struct {
		e graph.Edge
		l EdgeLabel
	}
	var inserts []insert        // surviving inserts, in post-commit index order
	freed := map[int][]uint32{} // slots the deletions free, by attach vertex
	for i, op := range p.ops {
		u, v := op.U, op.V
		if u > v {
			u, v = v, u
		}
		e := graph.Edge{U: u, V: v}
		ancU, preV := old.VertexLabel(u).Anc, old.VertexLabel(v).Anc.Pre
		if op.Add {
			slot := p.slots[i]
			row := rowFor(edgeID(slot, preV))
			out := make([]uint64, words)
			copy(out, row) // the new leaf's subtree aggregate is its own row
			inserts = append(inserts, insert{e, EdgeLabel{
				MaxFaults: d.params.MaxFaults,
				Spec:      spec,
				Parent:    ancU,
				Child:     ancestryLeaf(slot, ancU.Root),
				Out:       out,
			}})
			xorPaths(u, v, row, 0)
			continue
		}
		j := 0
		for j < len(inserts) && inserts[j].e != e {
			j++
		}
		var slot uint32
		if j < len(inserts) {
			// Inserted earlier in this batch: a level-0 edge.
			slot = inserts[j].l.Child.Pre
			inserts = append(inserts[:j], inserts[j+1:]...)
			xorPaths(u, v, rowFor(edgeID(slot, preV)), 0)
		} else {
			idx := old.g.EdgeIndex(u, v)
			slot = old.EdgeLabel(idx).Child.Pre
			row := rowFor(edgeID(slot, preV))
			if spec.Kind == KindAGM {
				xorPaths(u, v, row, 0)
			} else {
				for lvl, level := range old.Hierarchy.Levels {
					if pos := sort.SearchInts(level, idx); pos < len(level) && level[pos] == idx {
						xorPaths(u, v, row, lvl*stride)
					}
				}
			}
		}
		freed[u] = append(freed[u], slot)
	}

	delta := &GenDelta{PrevGen: d.gen, Gen: d.gen + 1, Ops: append([]Update(nil), p.ops...)}
	r, err := replayOps(old, delta.Ops)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: internal: incremental replay: %w", err)
	}
	children := make([]int, 0, len(masks))
	for w := range masks {
		children = append(children, w)
	}
	sort.Slice(children, func(i, j int) bool {
		return r.forest.ParentEdge[children[i]] < r.forest.ParentEdge[children[j]]
	})
	for _, w := range children {
		// An edge inserted and deleted in one batch XORs its row in twice:
		// a mask that cancels to zero leaves the label as it was.
		if !slices.ContainsFunc(masks[w], func(x uint64) bool { return x != 0 }) {
			continue
		}
		delta.DirtyIdx = append(delta.DirtyIdx, r.forest.ParentEdge[w])
		delta.DirtyXor = append(delta.DirtyXor, masks[w])
	}
	for _, ins := range inserts {
		delta.AddedIdx = append(delta.AddedIdx, r.g.EdgeIndex(ins.e.U, ins.e.V))
		delta.AddedLabels = append(delta.AddedLabels, ins.l)
	}
	rep, s, err := assemble(old, r, delta)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("core: internal: incremental assembly: %w", err)
	}
	delta.Token = s.token
	for i := range delta.AddedLabels {
		delta.AddedLabels[i].Token, delta.AddedLabels[i].Gen = s.token, s.gen
	}

	// Commit the allocator state only now that nothing can fail: the
	// classify-phase simulation's result, then the slots this batch freed.
	for v, a := range p.alloc {
		d.freed[v] = d.freed[v][:a.freeLeft]
		d.resNext[v] = a.next
	}
	for v, slots := range freed {
		d.freed[v] = append(d.freed[v], slots...)
	}
	d.gen = s.gen
	d.cur = s
	d.churn += len(p.ops)
	return rep, delta, s, nil
}

// ancestryLeaf is the ancestry label of a fresh subdivision leaf occupying
// a single reserved preorder slot.
func ancestryLeaf(slot, root uint32) ancestry.Label {
	return ancestry.Label{Pre: slot, Post: slot, Root: root}
}

// spliceShift removes idx from the sorted index slice (if present) and
// decrements every larger entry, mirroring graph.RemoveEdge's reindexing.
func spliceShift(xs []int, idx int) []int {
	out := xs[:0]
	for _, x := range xs {
		switch {
		case x == idx:
		case x > idx:
			out = append(out, x-1)
		default:
			out = append(out, x)
		}
	}
	return out
}

// edgeRemap computes, for every pre-commit edge of old, its index in new
// (or -1 when deleted), plus the ascending list of deleted indices. Returns
// (nil, nil) remap when no edge was deleted and order is unchanged.
func edgeRemap(old, newG *graph.Graph) (removed, remap []int) {
	identity := true
	remap = make([]int, old.M())
	for i, e := range old.Edges {
		if newG.HasEdge(e.U, e.V) {
			remap[i] = newG.EdgeIndex(e.U, e.V)
			if remap[i] != i {
				identity = false
			}
		} else {
			remap[i] = -1
			identity = false
			removed = append(removed, i)
		}
	}
	if identity {
		return nil, nil
	}
	return removed, remap
}
