package core

import (
	"errors"
	"fmt"

	"repro/internal/graph"
	"repro/internal/hierarchy"
)

// Generation deltas are the replication currency of the serving tier: one
// committed Dynamic batch, exported as exactly the information a replica
// needs to transform its copy of generation g-1 into a byte-identical copy
// of generation g without re-running any label construction.
//
// An incremental commit is fully described by its delta (DESIGN.md §3.10):
// the ordered mutation batch (replayed on the previous graph to reproduce
// the exact post-commit edge indexing), one whole-payload XOR mask per
// dirtied surviving label, and one full label per inserted edge. XOR
// composes: however many hierarchy-level segments a label's payload was
// rewritten in, new = old ⊕ mask recovers it in one pass, so the replica
// never needs the hierarchy to replay labels. The primary computes only
// the delta and builds its own next scheme through the same replay and
// label assembly ApplyDelta runs, so there is one way to make a
// generation.
//
// A commit that fell back to a full rebuild exports a Full marker instead:
// rebuilt labels share nothing with the previous generation, so shipping
// them would be shipping a snapshot — the replica refetches one.
//
// Soundness of the replay: an incremental commit touches only edge-label
// payloads, the global token/generation stamps, and the per-edge index
// bookkeeping. Vertex ancestry labels, the parent and child ancestry of
// surviving edge labels, and the spanning tree's shape are invariant, so
// copying them forward plus applying the masks and the shipped fresh
// labels reproduces the primary's labels exactly. ApplyDelta then checks
// the recomputed token fingerprint (graph, parameters, generation) against
// the shipped one, which rejects any divergence in the replayed graph
// before a wrong label can be served.

// GenDelta is one committed generation, exported for replication.
type GenDelta struct {
	// PrevGen is the generation this delta applies on top of; Gen the
	// generation it produces; Token the new generation's scheme token
	// (verified by ApplyDelta against its own recomputation).
	PrevGen, Gen, Token uint64

	// Full marks a commit that fell back to a full rebuild: the delta
	// carries no labels and the replica must refetch a snapshot. Reason is
	// the fallback trigger, for operator visibility.
	Full   bool
	Reason string

	// Ops is the committed batch in order. Replaying it on the previous
	// generation's graph reproduces the post-commit edge indexing exactly
	// (insertions append, deletions splice and shift).
	Ops []Update

	// DirtyIdx lists post-commit indices of surviving edges whose payload
	// changed, ascending; DirtyXor[i] is the whole-payload XOR mask (new ⊕
	// old) of DirtyIdx[i], spec.Words() words long. ApplyDelta also accepts
	// a Reed–Solomon mask of 2·Words() words, the legacy layout with all 2k
	// power sums per level, and converts it as the label decoder converts
	// legacy labels.
	DirtyIdx []int
	DirtyXor [][]uint64

	// AddedIdx lists post-commit indices of edges inserted by this batch
	// (and not removed again within it), ascending; AddedLabels[i] is the
	// complete fresh label of AddedIdx[i].
	AddedIdx    []int
	AddedLabels []EdgeLabel
}

// Replication sentinel errors; test with errors.Is.
var (
	// ErrFullRebuild is returned by ApplyDelta for a Full marker: the
	// generation cannot be reached by delta replay and the caller must
	// refetch a snapshot.
	ErrFullRebuild = errors.New("core: generation delta is a full-rebuild marker")
	// ErrDeltaGap is returned when a delta does not apply on top of the
	// scheme's generation (records were missed or replayed out of order).
	ErrDeltaGap = errors.New("core: generation delta does not extend this scheme")
	// ErrDeltaMismatch is returned when a delta is internally inconsistent
	// with the scheme it is applied to — the replica has diverged and must
	// refetch a snapshot rather than serve doubtful labels.
	ErrDeltaMismatch = errors.New("core: generation delta disagrees with scheme")
)

// ApplyDelta replays one generation delta onto a scheme (typically a
// replica's snapshot-loaded copy of the primary's previous generation),
// returning a fresh immutable scheme at the delta's generation whose labels
// are byte-identical to the primary's, plus a CommitReport equivalent to
// the primary's (so the serving layer can run the same selective cache
// evict/rebase sweep). s itself is never mutated; like every commit, the
// new generation shares untouched label payloads with the old one.
//
// A lazily-loaded scheme is materialized by the first ApplyDelta — every
// label is decoded once so the new generation owns plain label slices and
// retains every vertex and edge label. The O(m) cost is paid once per
// replica process, not per record. The lazy s keeps only the vertex labels
// the replay decoded; it retains none of its edge labels.
func ApplyDelta(s *Scheme, d *GenDelta) (*CommitReport, *Scheme, error) {
	if d.Full {
		return nil, nil, fmt.Errorf("%w: generation %d (%s)", ErrFullRebuild, d.Gen, d.Reason)
	}
	if s.gen != d.PrevGen {
		return nil, nil, fmt.Errorf("%w: scheme at generation %d, delta extends %d",
			ErrDeltaGap, s.gen, d.PrevGen)
	}
	if d.Gen != d.PrevGen+1 {
		return nil, nil, fmt.Errorf("%w: delta %d -> %d is not one generation", ErrDeltaMismatch, d.PrevGen, d.Gen)
	}
	r, err := replayOps(s, d.Ops)
	if err != nil {
		return nil, nil, err
	}
	rep, out, err := assemble(s, r, d)
	if err != nil {
		return nil, nil, err
	}
	if out.token != d.Token {
		return nil, nil, fmt.Errorf("%w: replayed token %#x, shipped %#x (replica diverged)",
			ErrDeltaMismatch, out.token, d.Token)
	}
	return rep, out, nil
}

// replay is the graph side of one generation's batch: the post-commit
// graph, the spanning forest and hierarchy carried forward onto its edge
// indexing, and how the indices moved.
type replay struct {
	g      *graph.Graph
	forest *graph.Forest
	h      *hierarchy.Hierarchy
	// removed and remap are edgeRemap's; both nil when nothing was deleted.
	removed, remap []int
}

// replayOps applies a batch to a clone of s's graph.
// Insertions append and join hierarchy level 0 as non-tree edges;
// deletions splice and shift edge indices in every level, in IsTreeEdge
// and in ParentEdge. The tree itself never moves, so the forest's other
// slices are shared with s; the ones that change are copied before their
// first edit, and s is never mutated.
func replayOps(s *Scheme, ops []Update) (*replay, error) {
	hasRemove := false
	for _, op := range ops {
		if !op.Add {
			hasRemove = true
		}
	}
	forest := *s.Forest
	forest.IsTreeEdge = append([]bool(nil), forest.IsTreeEdge...)
	if hasRemove {
		forest.ParentEdge = append([]int(nil), forest.ParentEdge...)
	}
	r := &replay{g: s.g.Clone(), forest: &forest}
	if s.Hierarchy != nil {
		r.h = &hierarchy.Hierarchy{Levels: append([][]int(nil), s.Hierarchy.Levels...)}
		for lvl := range r.h.Levels {
			if lvl == 0 || hasRemove {
				r.h.Levels[lvl] = append([]int(nil), r.h.Levels[lvl]...)
			}
		}
	}
	for i, op := range ops {
		if op.Add {
			idx, err := r.g.AddEdge(op.U, op.V)
			if err != nil {
				return nil, fmt.Errorf("%w: op %d: %v", ErrDeltaMismatch, i, err)
			}
			if r.h != nil {
				r.h.Levels[0] = append(r.h.Levels[0], idx)
			}
			forest.IsTreeEdge = append(forest.IsTreeEdge, false)
			continue
		}
		idx, err := r.g.RemoveEdge(op.U, op.V)
		if err != nil {
			return nil, fmt.Errorf("%w: op %d: %v", ErrDeltaMismatch, i, err)
		}
		if r.h != nil {
			for lvl := range r.h.Levels {
				r.h.Levels[lvl] = spliceShift(r.h.Levels[lvl], idx)
			}
		}
		forest.IsTreeEdge = append(forest.IsTreeEdge[:idx], forest.IsTreeEdge[idx+1:]...)
		for w, pe := range forest.ParentEdge {
			if pe > idx {
				forest.ParentEdge[w] = pe - 1
			}
		}
	}
	if hasRemove {
		r.removed, r.remap = edgeRemap(s.g, r.g)
	}
	return r, nil
}

// assemble builds the scheme a delta describes on top of s and the replay
// r of its ops: surviving labels carried over through the remap, the XOR
// masks applied, the fresh labels installed, and every label stamped with
// the token the replayed graph fingerprints to. Untouched payloads stay
// shared with s. It returns the matching CommitReport too; checking the
// token against a shipped one is the caller's business.
func assemble(s *Scheme, r *replay, d *GenDelta) (*CommitReport, *Scheme, error) {
	words := s.spec.Words()
	m := r.g.M()
	els := make([]EdgeLabel, m)
	filled := make([]bool, m)
	for pre := 0; pre < s.g.M(); pre++ {
		post := pre
		if r.remap != nil {
			post = r.remap[pre]
			if post < 0 {
				continue
			}
		}
		// A lazily loaded slot that failed to decode arrives poisoned;
		// the restamp below would make it a valid label, so refuse it.
		if els[post] = s.EdgeLabel(pre); els[post].Token != s.token {
			return nil, nil, fmt.Errorf("%w: edge %d's label does not carry the scheme token", ErrDeltaMismatch, pre)
		}
		filled[post] = true
	}
	for i, idx := range d.DirtyIdx {
		if idx < 0 || idx >= m || !filled[idx] {
			return nil, nil, fmt.Errorf("%w: dirty index %d has no surviving label", ErrDeltaMismatch, idx)
		}
		mask := d.DirtyXor[i]
		if len(mask) == 2*words && s.spec.Kind != KindAGM {
			// A legacy mask: the XOR of two legacy payloads is binary
			// too, so its even sums must be squares like a label's.
			var ok bool
			if mask, ok = s.spec.fromLegacy(mask); !ok {
				return nil, nil, fmt.Errorf("%w: dirty mask %d is not a binary syndrome in the legacy layout", ErrDeltaMismatch, idx)
			}
		}
		if len(mask) != words {
			return nil, nil, fmt.Errorf("%w: dirty mask %d has %d words, spec wants %d", ErrDeltaMismatch, idx, len(mask), words)
		}
		if len(els[idx].Out) != words {
			return nil, nil, fmt.Errorf("%w: dirty edge %d's label has %d words, spec wants %d", ErrDeltaMismatch, idx, len(els[idx].Out), words)
		}
		out := make([]uint64, words)
		for w := range out {
			out[w] = els[idx].Out[w] ^ mask[w]
		}
		els[idx].Out = out
	}
	for i, idx := range d.AddedIdx {
		if idx < 0 || idx >= m || filled[idx] {
			return nil, nil, fmt.Errorf("%w: added index %d is not a fresh slot", ErrDeltaMismatch, idx)
		}
		l := d.AddedLabels[i]
		if l.Spec != s.spec || len(l.Out) != words {
			return nil, nil, fmt.Errorf("%w: added label %d disagrees with scheme spec", ErrDeltaMismatch, idx)
		}
		l.Out = append([]uint64(nil), l.Out...)
		l.MaxFaults = s.params.MaxFaults
		els[idx] = l
		filled[idx] = true
	}
	for idx, ok := range filled {
		if !ok {
			return nil, nil, fmt.Errorf("%w: edge %d has no label after replay", ErrDeltaMismatch, idx)
		}
	}

	vls := make([]VertexLabel, s.n)
	for v := range vls {
		if vls[v] = s.VertexLabel(v); vls[v].Token != s.token {
			return nil, nil, fmt.Errorf("%w: vertex %d's label does not carry the scheme token", ErrDeltaMismatch, v)
		}
	}
	out := &Scheme{
		params:       s.params,
		gen:          d.Gen,
		spec:         s.spec,
		n:            s.n,
		g:            r.g,
		vertexLabels: vls,
		edgeLabels:   els,
		Forest:       r.forest,
		Hierarchy:    r.h,
	}
	out.token = out.computeToken(r.g)
	for i := range vls {
		vls[i].Token, vls[i].Gen = out.token, out.gen
	}
	for i := range els {
		els[i].Token, els[i].Gen = out.token, out.gen
	}
	rep := &CommitReport{
		Gen:         out.gen,
		Token:       out.token,
		Incremental: true,
		Relabeled:   relabeledOf(d),
		Removed:     r.removed,
		Remap:       r.remap,
	}
	return rep, out, nil
}

// relabeledOf merges a delta's dirty and added indices into the ascending
// Relabeled list a CommitReport carries.
func relabeledOf(d *GenDelta) []int {
	out := make([]int, 0, len(d.DirtyIdx)+len(d.AddedIdx))
	out = append(out, d.DirtyIdx...)
	out = append(out, d.AddedIdx...)
	insertionSort(out)
	return out
}

func insertionSort(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
