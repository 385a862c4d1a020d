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
// The incremental commit path already computes the minimal change set — the
// GF(2) XOR rewrites of the tree-path labels plus the fresh labels of
// inserted edges (DESIGN.md §3.10) — so an incremental delta carries the
// ordered mutation batch (replayed on the replica's graph to reproduce the
// exact post-commit edge indexing), one whole-payload XOR mask per dirtied
// surviving label, and one full label per inserted edge. XOR composes:
// however many hierarchy-level segments a label's payload was rewritten in,
// new = old ⊕ (new ⊕ old) recovers it in one pass, so the replica never
// needs the hierarchy to replay labels.
//
// A commit that fell back to a full rebuild exports a Full marker instead:
// rebuilt labels share nothing with the previous generation, so shipping
// them would be shipping a snapshot — the replica refetches one.
//
// Soundness of the replay (asserted byte-for-byte by the tests against a
// fresh build): the incremental path touches only edge-label payloads and
// the global token/generation stamps. Vertex ancestry labels, the parent and
// child ancestry of surviving edge labels, and the spanning forest are all
// invariant under an incremental commit, so copying them forward plus
// applying the XOR masks and the shipped fresh labels reproduces the
// primary's labels exactly; the recomputed token fingerprint (graph,
// parameters, generation) must then match the shipped one, which rejects
// any divergence in the replayed graph before a wrong label can be served.

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
	// changed; DirtyXor[i] is the whole-payload XOR mask (new ⊕ old) of
	// DirtyIdx[i], spec.Words() words long. ApplyDelta also accepts a
	// Reed–Solomon mask of 2·Words() words, the legacy layout with all 2k
	// power sums per level, and converts it as the label decoder converts
	// legacy labels.
	DirtyIdx []int
	DirtyXor [][]uint64

	// AddedIdx lists post-commit indices of edges inserted by this batch
	// (and not removed again within it); AddedLabels[i] is the complete
	// fresh label of AddedIdx[i].
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

// CommitWithDelta is Commit, additionally exporting the committed batch as
// a GenDelta for log shipping. A no-op commit (empty batch) returns a nil
// delta — there is no generation change to ship.
func (d *Dynamic) CommitWithDelta(batch []Update) (*CommitReport, *GenDelta, *Scheme, error) {
	old := d.cur
	rep, s, err := d.Commit(batch)
	if err != nil {
		return nil, nil, nil, err
	}
	if s == old {
		return rep, nil, s, nil
	}
	return rep, buildDelta(old, s, rep, batch), s, nil
}

// buildDelta diffs two adjacent generations into the delta record replicas
// replay. old and new are the schemes before and after the commit described
// by rep; batch is the committed op sequence.
func buildDelta(old, new *Scheme, rep *CommitReport, batch []Update) *GenDelta {
	g := &GenDelta{
		PrevGen: old.gen,
		Gen:     rep.Gen,
		Token:   rep.Token,
		Ops:     append([]Update(nil), batch...),
	}
	if !rep.Incremental {
		g.Full = true
		g.Reason = rep.Reason
		return g
	}
	// Invert the remap so each relabeled post-commit index resolves to its
	// pre-commit label (or to "inserted" when it has no preimage).
	var preOf func(post int) int
	if rep.Remap == nil {
		preOf = func(post int) int {
			if post < old.g.M() {
				return post
			}
			return -1
		}
	} else {
		inv := make([]int, new.g.M())
		for i := range inv {
			inv[i] = -1
		}
		for pre, post := range rep.Remap {
			if post >= 0 {
				inv[post] = pre
			}
		}
		preOf = func(post int) int { return inv[post] }
	}
	for _, e := range rep.Relabeled {
		pre := preOf(e)
		if pre < 0 {
			// Inserted edge: ship the complete fresh label.
			l := new.EdgeLabel(e)
			l.Out = append([]uint64(nil), l.Out...)
			g.AddedIdx = append(g.AddedIdx, e)
			g.AddedLabels = append(g.AddedLabels, l)
			continue
		}
		oldOut := old.EdgeLabel(pre).Out
		newOut := new.EdgeLabel(e).Out
		mask := make([]uint64, len(newOut))
		for w := range mask {
			mask[w] = newOut[w] ^ oldOut[w]
		}
		g.DirtyIdx = append(g.DirtyIdx, e)
		g.DirtyXor = append(g.DirtyXor, mask)
	}
	return g
}

// ApplyDelta replays one generation delta onto a scheme (typically a
// replica's snapshot-loaded copy of the primary's previous generation),
// returning a fresh immutable scheme at the delta's generation whose labels
// are byte-identical to the primary's, plus a CommitReport equivalent to
// the primary's (so the serving layer can run the same selective cache
// evict/rebase sweep). s itself is never mutated; like every commit, the
// new generation shares untouched label payloads with the old one.
//
// A lazily-loaded scheme is materialized by the first ApplyDelta — every
// label is decoded once so the new generation owns plain label slices. The
// O(m) cost is paid once per replica process, not per record.
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
	// Replay the op sequence on a graph clone. Insertion appends and
	// deletion splices exactly as the primary's commit did, so edge
	// indices line up by construction; the hierarchy bookkeeping mirrors
	// applyIncremental (inserts join level 0, deletions splice-shift every
	// level) so a replica's scheme stays structurally sound.
	gNew := s.g.Clone()
	var h *hierarchy.Hierarchy
	if s.Hierarchy != nil {
		h = &hierarchy.Hierarchy{Levels: make([][]int, len(s.Hierarchy.Levels))}
		for i, lvl := range s.Hierarchy.Levels {
			h.Levels[i] = append([]int(nil), lvl...)
		}
	}
	for i, op := range d.Ops {
		if op.Add {
			idx, err := gNew.AddEdge(op.U, op.V)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: op %d: %v", ErrDeltaMismatch, i, err)
			}
			if h != nil {
				h.Levels[0] = append(h.Levels[0], idx)
			}
		} else {
			u, v := op.U, op.V
			if u > v {
				u, v = v, u
			}
			idx := gNew.EdgeIndex(u, v)
			if _, err := gNew.RemoveEdge(u, v); err != nil {
				return nil, nil, fmt.Errorf("%w: op %d: %v", ErrDeltaMismatch, i, err)
			}
			if h != nil {
				for lvl := range h.Levels {
					h.Levels[lvl] = spliceShift(h.Levels[lvl], idx)
				}
			}
		}
	}
	removed, remap := edgeRemap(s.g, gNew)

	words := s.spec.Words()
	els := make([]EdgeLabel, gNew.M())
	filled := make([]bool, gNew.M())
	for pre := 0; pre < s.g.M(); pre++ {
		post := pre
		if remap != nil {
			post = remap[pre]
			if post < 0 {
				continue
			}
		}
		els[post] = s.EdgeLabel(pre)
		filled[post] = true
	}
	for i, idx := range d.DirtyIdx {
		if idx < 0 || idx >= len(els) || !filled[idx] {
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
		if len(mask) != words || len(els[idx].Out) != words {
			return nil, nil, fmt.Errorf("%w: dirty mask %d has %d words, spec wants %d", ErrDeltaMismatch, idx, len(d.DirtyXor[i]), words)
		}
		out := make([]uint64, words)
		for w := range out {
			out[w] = els[idx].Out[w] ^ mask[w]
		}
		els[idx].Out = out
	}
	for i, idx := range d.AddedIdx {
		if idx < 0 || idx >= len(els) || filled[idx] {
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
		vls[v] = s.VertexLabel(v)
	}

	out := &Scheme{
		params:       s.params,
		gen:          d.Gen,
		spec:         s.spec,
		n:            s.n,
		g:            gNew,
		vertexLabels: vls,
		edgeLabels:   els,
		Forest:       graph.SpanningForest(gNew),
		Hierarchy:    h,
	}
	out.token = out.computeToken(gNew)
	if out.token != d.Token {
		return nil, nil, fmt.Errorf("%w: replayed token %#x, shipped %#x (replica diverged)",
			ErrDeltaMismatch, out.token, d.Token)
	}
	for i := range vls {
		vls[i].Token, vls[i].Gen = out.token, out.gen
	}
	for i := range els {
		els[i].Token, els[i].Gen = out.token, out.gen
	}

	rep := &CommitReport{
		Gen:         d.Gen,
		Token:       out.token,
		Incremental: true,
		Relabeled:   relabeledOf(d),
		Removed:     removed,
		Remap:       remap,
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
