package ftc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/graph"
)

// Network is a mutable, generation-versioned f-FTC labeling: the
// construction-side counterpart of the "one failure event, many probes"
// decoder objects, for deployments whose topology changes faster than full
// rebuilds are affordable.
//
// Mutations are batched: AddEdge and RemoveEdge stage changes, Commit
// applies the whole batch as one new generation. A committed batch that
// leaves the spanning forest intact — inserting edges between
// already-connected vertices, deleting redundant (non-tree) edges — is
// applied incrementally, relabeling only the tree-path labels the update
// dirties; anything that breaks the forest or the ε-net hierarchy
// invariants (component merges, tree-edge deletions, slot exhaustion,
// churn past the invalidation budget) falls back to a full parallel
// rebuild. Either way the result is exact: every committed generation
// answers queries identically to a from-scratch New on the same graph.
//
// Each generation is an immutable Scheme published atomically: Snapshot is
// safe to call (and its labels safe to probe) concurrently with staged
// mutations and commits, and snapshots taken before a commit remain fully
// consistent views of their own generation. Labels are stamped with their
// generation; mixing labels across generations fails fast with
// ErrStaleLabel instead of silently answering against a graph that no
// longer exists.
type Network struct {
	mu      sync.Mutex // guards dyn and the staged batch
	dyn     *core.Dynamic
	staged  []core.Update
	inBatch map[graph.Edge]bool
	cur     atomic.Pointer[Scheme]
}

// Update is one staged mutation of a Network's edge set.
type Update = core.Update

// CommitReport describes one committed batch: the generation and token it
// produced, whether the incremental path applied, which edges were
// relabeled, and how edge indices moved.
type CommitReport = core.CommitReport

// Open builds the initial labeling (generation 1) for the undirected
// simple graph on n vertices and returns the mutable Network. Options are
// as for New, plus WithHeadroom.
func Open(n int, edges [][2]int, opts ...Option) (*Network, error) {
	g := graph.New(n)
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("ftc: %w", err)
		}
	}
	return OpenFromGraph(g, opts...)
}

// OpenFromGraph is Open over an already-assembled internal graph — the
// entry point for the daemon and harness layers that hold a *graph.Graph.
// The Network takes ownership of g as its generation-1 graph; the caller
// must not modify it afterwards.
func OpenFromGraph(g *graph.Graph, opts ...Option) (*Network, error) {
	o := options{params: core.Params{MaxFaults: 2, Kind: core.KindDetNetFind}}
	for _, opt := range opts {
		opt(&o)
	}
	dyn, err := core.NewDynamic(g, o.params)
	if err != nil {
		return nil, fmt.Errorf("ftc: %w", err)
	}
	nw := &Network{dyn: dyn, inBatch: map[graph.Edge]bool{}}
	nw.publish()
	return nw, nil
}

// publish swaps the current immutable snapshot; callers hold nw.mu.
func (nw *Network) publish() {
	inner := nw.dyn.Scheme()
	nw.cur.Store(&Scheme{g: inner.Graph(), inner: inner})
}

// Snapshot returns the current generation as an immutable Scheme. The
// snapshot never changes — later commits publish new snapshots — so it can
// be probed, saved, or handed to a serving layer without synchronization.
func (nw *Network) Snapshot() *Scheme { return nw.cur.Load() }

// Generation returns the committed generation (1 after Open).
func (nw *Network) Generation() uint64 { return nw.Snapshot().Generation() }

// stage validates and stages one mutation. Each unordered endpoint pair
// may appear at most once per batch.
func (nw *Network) stage(u, v int, add bool) error {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	g := nw.dyn.Scheme().Graph()
	if u > v {
		u, v = v, u
	}
	if u < 0 || v >= g.N() {
		return fmt.Errorf("ftc: endpoint out of range (%d,%d) with n=%d", u, v, g.N())
	}
	if u == v {
		return fmt.Errorf("ftc: self-loop at %d", u)
	}
	e := graph.Edge{U: u, V: v}
	if nw.inBatch[e] {
		return fmt.Errorf("ftc: edge (%d,%d) already staged in this batch", u, v)
	}
	if add && g.HasEdge(u, v) {
		return fmt.Errorf("ftc: edge (%d,%d) already present", u, v)
	}
	if !add && !g.HasEdge(u, v) {
		return fmt.Errorf("ftc: no edge (%d,%d) to remove", u, v)
	}
	nw.inBatch[e] = true
	nw.staged = append(nw.staged, core.Update{Add: add, U: u, V: v})
	return nil
}

// AddEdge stages the insertion of edge {u, v} for the next Commit.
func (nw *Network) AddEdge(u, v int) error { return nw.stage(u, v, true) }

// RemoveEdge stages the deletion of edge {u, v} for the next Commit.
func (nw *Network) RemoveEdge(u, v int) error { return nw.stage(u, v, false) }

// Pending returns the number of staged, uncommitted mutations.
func (nw *Network) Pending() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return len(nw.staged)
}

// Discard drops every staged mutation without committing.
func (nw *Network) Discard() {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	nw.staged = nil
	nw.inBatch = map[graph.Edge]bool{}
}

// Commit applies the staged batch as one new generation and publishes the
// resulting snapshot. With nothing staged it is a no-op reporting the
// current generation. On error the staged batch is kept so the caller can
// inspect or Discard it; the committed state is unchanged either way.
func (nw *Network) Commit() (*CommitReport, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	rep, _, _, err := nw.dyn.Commit(nw.staged)
	if err != nil {
		return nil, fmt.Errorf("ftc: %w", err)
	}
	nw.staged = nil
	nw.inBatch = map[graph.Edge]bool{}
	nw.publish()
	return rep, nil
}

// CommitBatch stages and commits one batch of endpoint pairs in a single
// critical section: CommitBatchWithDelta without the delta.
func (nw *Network) CommitBatch(add, remove [][2]int) (*CommitReport, error) {
	rep, _, err := nw.CommitBatchWithDelta(add, remove)
	return rep, err
}

// GenDelta is a committed generation exported for replication log
// shipping: the op batch plus the XOR label deltas (or a full-rebuild
// marker) a replica replays to reproduce the generation byte-for-byte.
type GenDelta = core.GenDelta

// CommitBatchWithDelta stages and commits one batch of endpoint pairs in a
// single critical section — the entry point used by the serving layer's
// /update endpoint, where concurrent batches must serialize cleanly — and
// returns the commit's GenDelta for a generation log. The delta is nil for
// a no-op batch.
func (nw *Network) CommitBatchWithDelta(add, remove [][2]int) (*CommitReport, *GenDelta, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if len(nw.staged) > 0 {
		return nil, nil, fmt.Errorf("ftc: %d mutations already staged; commit or discard them first", len(nw.staged))
	}
	batch := make([]core.Update, 0, len(add)+len(remove))
	for _, e := range add {
		batch = append(batch, core.Update{Add: true, U: e[0], V: e[1]})
	}
	for _, e := range remove {
		batch = append(batch, core.Update{U: e[0], V: e[1]})
	}
	rep, delta, _, err := nw.dyn.Commit(batch)
	if err != nil {
		return nil, nil, fmt.Errorf("ftc: %w", err)
	}
	nw.publish()
	return rep, delta, nil
}

// Churn returns the incremental updates absorbed since the last full
// rebuild — the budget consumed against the hierarchy invalidation
// predicate.
func (nw *Network) Churn() int {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	return nw.dyn.Churn()
}

// The read-side accessors below delegate to the current snapshot, so a
// Network can be used directly wherever a read-only scheme is expected.
// Each call reads the latest generation independently; callers that need
// one consistent view across several calls should take a Snapshot first.

// N returns the vertex count.
func (nw *Network) N() int { return nw.Snapshot().N() }

// M returns the current edge count.
func (nw *Network) M() int { return nw.Snapshot().M() }

// MaxFaults returns the fault budget f.
func (nw *Network) MaxFaults() int { return nw.Snapshot().MaxFaults() }

// Graph exposes the current generation's graph (read-only).
func (nw *Network) Graph() *graph.Graph { return nw.Snapshot().Graph() }

// VertexLabel returns the label of vertex v at the current generation.
func (nw *Network) VertexLabel(v int) VertexLabel { return nw.Snapshot().VertexLabel(v) }

// EdgeLabel returns an independent copy of the current label of {u, v}.
func (nw *Network) EdgeLabel(u, v int) (EdgeLabel, error) { return nw.Snapshot().EdgeLabel(u, v) }

// EdgeLabelByIndex returns an independent copy of the current label of the
// i-th edge.
func (nw *Network) EdgeLabelByIndex(i int) EdgeLabel { return nw.Snapshot().EdgeLabelByIndex(i) }

// EdgeEnds returns the current ancestry labels of the i-th edge's label.
func (nw *Network) EdgeEnds(i int) (parent, child ancestry.Label) { return nw.Snapshot().EdgeEnds(i) }

// Stats returns the size accounting of the current generation.
func (nw *Network) Stats() Stats { return nw.Snapshot().Stats() }
