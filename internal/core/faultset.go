package core

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/fragments"
)

// FaultSet is a compiled, immutable fault set — the decoder-side object for
// the paper's deployment pattern of "one failure event, many probes" (§7).
// Compiling parses, validates, and deduplicates the fault labels exactly
// once, grouping them per spanning-forest root (not per anchor component, so
// probes anywhere in the graph are answered correctly), and precomputes each
// fragment's initial super-fragment state τ(S): the aggregated outdetect
// payload and the boundary fault bitset of §7.6.
//
// Probes are cheap and concurrency-safe: the first probe that touches a
// component drives the fragment growth of §7.6 to completion once (over
// pooled scratch — see queryState), caches the resulting connectivity
// partition, and every subsequent probe in that component is two interval
// stabs plus two partition lookups with zero allocations.
//
// A FaultSet is built purely from labels; it never accesses the graph.
type FaultSet struct {
	token     uint64
	gen       uint64
	hasFaults bool
	maxFaults int
	spec      OutSpec
	// faultCount is the deduplicated fault count across all components.
	faultCount int
	// comps holds one compiled component per spanning-forest root with at
	// least one fault, sorted by root preorder. |comps| ≤ f, so the probe
	// path looks components up with a linear scan.
	comps []*faultComponent
}

// faultComponent is the compiled per-spanning-tree slice of a FaultSet: the
// fragment decomposition induced by the component's faults, the initial
// super-fragment state its closure run starts from, and the closure.
type faultComponent struct {
	root      uint32
	spec      OutSpec
	maxFaults int
	frags     *fragments.Set
	count     int // fragments (|F_root| + 1)
	words     int // payload words per super-fragment
	cutWords  int // boundary-bitset words per super-fragment

	// Initial super-fragment state, flattened per fragment: the closure
	// run (and the one-shot path's run) copies it into pooled scratch
	// instead of re-aggregating label payloads. Only acquire reads it, so
	// ensureClosed drops it once its run is done.
	initSum     []uint64
	initCut     []uint64
	initCutSize []int32

	// Lazily computed full closure: closure[c] is the union-find root of
	// fragment c after every super-fragment has been grown to completion,
	// and route is the crossing structure that run decoded, which route
	// plans walk (routeset.go). Guarded by closeOnce; read-only afterwards,
	// so concurrent probes and plans need no further synchronization.
	closeOnce sync.Once
	closure   []int32
	route     crossGraph
	closeErr  error
}

// CompileFaults builds a FaultSet from fault-edge labels. It validates token
// consistency, normalizes every fault edge (Parent the ancestor), collapses
// duplicates (a tree edge is determined by its child endpoint), groups the
// faults per spanning-forest root, and enforces the global fault budget
// |F| ≤ f. An empty slice compiles to the trivial FaultSet, for which
// connectivity degenerates to same-component.
func CompileFaults(faults []EdgeLabel) (*FaultSet, error) {
	fs := &FaultSet{}
	if len(faults) == 0 {
		return fs, nil
	}
	fs.token = faults[0].Token
	fs.gen = faults[0].Gen
	fs.hasFaults = true
	fs.maxFaults = faults[0].MaxFaults
	fs.spec = faults[0].Spec
	for i := range faults {
		if err := checkStamp(faults[i].Token, faults[i].Gen, fs.token, fs.gen, fmt.Sprintf("fault %d tokens", i)); err != nil {
			return nil, err
		}
	}
	// Group by component root. Duplicate faults (same child preorder) keep
	// the last label, matching fragments.Build's own dedupe.
	type group struct {
		fts []fragments.Fault
		out map[uint32][]uint64
	}
	groups := map[uint32]*group{}
	var roots []uint32
	for i := range faults {
		fl := &faults[i]
		ft, err := fragments.Normalize(fl.Parent, fl.Child)
		if err != nil {
			return nil, err
		}
		g := groups[ft.Child.Root]
		if g == nil {
			g = &group{out: map[uint32][]uint64{}}
			groups[ft.Child.Root] = g
			roots = append(roots, ft.Child.Root)
		}
		g.fts = append(g.fts, ft)
		g.out[ft.Child.Pre] = fl.Out
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	words := fs.spec.Words()
	for _, root := range roots {
		g := groups[root]
		set, err := fragments.Build(g.fts)
		if err != nil {
			return nil, err
		}
		fs.faultCount += len(set.Faults)
		count := set.Count()
		cutWords := (len(set.Faults) + 63) / 64
		comp := &faultComponent{
			root:        root,
			spec:        fs.spec,
			maxFaults:   fs.maxFaults,
			frags:       set,
			count:       count,
			words:       words,
			cutWords:    cutWords,
			initSum:     make([]uint64, count*words),
			initCut:     make([]uint64, count*cutWords),
			initCutSize: make([]int32, count),
		}
		for c := 0; c < count; c++ {
			sum := comp.initSum[c*words : (c+1)*words]
			cut := comp.initCut[c*cutWords : (c+1)*cutWords]
			for _, fi := range set.Boundary[c] {
				out := g.out[set.Faults[fi].Child.Pre]
				if len(out) != words {
					return nil, fmt.Errorf("%w: inconsistent fault payloads", ErrLabelMismatch)
				}
				for w := range out {
					sum[w] ^= out[w]
				}
				cut[fi/64] ^= 1 << uint(fi%64)
			}
			comp.initCutSize[c] = int32(popcount(cut))
		}
		fs.comps = append(fs.comps, comp)
	}
	if fs.faultCount > fs.maxFaults {
		return nil, fmt.Errorf("%w: %d faults, budget %d", ErrTooManyFaults, fs.faultCount, fs.maxFaults)
	}
	return fs, nil
}

// compForRoot returns the compiled component for the given spanning-forest
// root, or nil when no fault touches that component.
func (fs *FaultSet) compForRoot(root uint32) *faultComponent {
	for _, c := range fs.comps {
		if c.root == root {
			return c
		}
	}
	return nil
}

// ensureClosed runs the fragment growth of §7.6 to completion once and
// caches the connectivity partition, together with the crossing structure
// that route plans walk: the run records every crossing it decodes, so a
// component that is probed and routed decodes once, whichever product
// comes first. Decode failures (possible for the AGM whp baseline,
// impossible for the deterministic kinds with sound thresholds) are cached
// too and returned by every probe and plan of the component.
//
// The run is deterministic (fixed heap order, fragS = fragT = -1), so it
// records the same crossings whichever product triggers it. Every
// union-find merge during closure is triggered by a decoded crossing, and
// each decoded crossing is recorded before the both-inside skip, so the
// recorded set contains a spanning structure of each closure class: BFS
// over it finds a fragment path between any two fragments that are
// connected in G − F.
func (c *faultComponent) ensureClosed() error {
	c.closeOnce.Do(func() {
		q := c.acquire()
		defer releaseQueryState(q)
		// Nothing acquires this component again: probes and plans read
		// the closure and the crossing graph only.
		c.initSum, c.initCut, c.initCutSize = nil, nil, nil
		q.recording = true
		if _, err := q.runFast(); err != nil {
			c.closeErr = err
			return
		}
		closure := make([]int32, c.count)
		for i := range closure {
			closure[i] = q.find(int32(i))
		}
		c.closure = closure
		// Copy the records: q's buffer goes back to the pool.
		c.route = newCrossGraph(c.frags, slices.Clone(q.records))
	})
	return c.closeErr
}

// Connected probes s–t connectivity under the compiled fault set. After the
// first probe of a component the steady-state cost is two interval stabs
// plus two partition lookups, with zero allocations; probes are safe to
// issue from concurrent goroutines.
func (fs *FaultSet) Connected(s, t VertexLabel) (bool, error) {
	if err := checkStamp(s.Token, s.Gen, t.Token, t.Gen, "vertex tokens"); err != nil {
		return false, err
	}
	if fs.hasFaults {
		if err := checkStamp(s.Token, s.Gen, fs.token, fs.gen, "vertex and fault tokens"); err != nil {
			return false, err
		}
	}
	if s.Anc.Root != t.Anc.Root {
		return false, nil
	}
	if s.Anc.Pre == t.Anc.Pre {
		return true, nil
	}
	comp := fs.compForRoot(s.Anc.Root)
	if comp == nil {
		// No fault touches this component: same root ⇒ connected.
		return true, nil
	}
	if err := comp.ensureClosed(); err != nil {
		return false, err
	}
	a := comp.closure[comp.frags.StabLabel(s.Anc)]
	b := comp.closure[comp.frags.StabLabel(t.Anc)]
	return a == b, nil
}

// ConnectedBatch answers many probes in one call. The result slice is
// allocated once; the probes themselves run on the same zero-alloc path as
// Connected.
func (fs *FaultSet) ConnectedBatch(pairs [][2]VertexLabel) ([]bool, error) {
	out := make([]bool, len(pairs))
	for i := range pairs {
		ok, err := fs.Connected(pairs[i][0], pairs[i][1])
		if err != nil {
			return nil, fmt.Errorf("pair %d: %w", i, err)
		}
		out[i] = ok
	}
	return out, nil
}

// Session forces the closure of every compiled component and returns a
// Session over the full partition.
func (fs *FaultSet) Session() (*Session, error) {
	for _, c := range fs.comps {
		if err := c.ensureClosed(); err != nil {
			return nil, err
		}
	}
	return &Session{fs: fs}, nil
}

// Rebase returns a FaultSet that shares fs's compiled state — fragment
// decomposition, payload aggregates, and any already-computed closures —
// but expects labels stamped with the given token and generation.
//
// Rebasing is sound exactly when none of the fault edges was relabeled
// between fs's generation and the target one (the condition the serving
// layer's selective cache invalidation enforces): an update whose tree
// paths avoid every fault subtree boundary has both endpoints in a single
// fragment of this fault set, so the compiled partition of G − F is
// unchanged. See DESIGN.md §3.10.
func (fs *FaultSet) Rebase(token, gen uint64) *FaultSet {
	if !fs.hasFaults {
		return fs
	}
	out := *fs
	out.token = token
	out.gen = gen
	return &out
}

// Faults returns the deduplicated fault count across all components.
func (fs *FaultSet) Faults() int { return fs.faultCount }

// Generation returns the generation stamp of the compiled fault labels
// (0 for static schemes or an empty FaultSet).
func (fs *FaultSet) Generation() uint64 { return fs.gen }

// MaxFaults returns the budget f the fault labels were constructed for
// (0 for an empty FaultSet).
func (fs *FaultSet) MaxFaults() int { return fs.maxFaults }

// FaultComponents returns the number of spanning-forest components touched
// by at least one fault.
func (fs *FaultSet) FaultComponents() int { return len(fs.comps) }
