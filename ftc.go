// Package ftc is a Go implementation of the deterministic fault-tolerant
// connectivity (f-FTC) labeling scheme of Izumi, Emek, Wadayama, and
// Masuzawa (PODC 2023, arXiv:2208.11459).
//
// An f-FTC labeling assigns every vertex and edge of a graph a short label
// such that, for any vertices s, t and any set F of at most f faulty edges,
// the connectivity of s and t in G − F is decided from the labels of s, t,
// and the edges of F alone — no access to the graph. The scheme here is
// deterministic (every query is answered correctly, not just with high
// probability), with O(f²·polylog n)-bit edge labels and O(log n)-bit
// vertex labels.
//
// # Quick start
//
//	scheme, err := ftc.New(4, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}},
//	    ftc.WithMaxFaults(2))
//	if err != nil { ... }
//	s := scheme.VertexLabel(0)
//	t := scheme.VertexLabel(2)
//	f := []ftc.EdgeLabel{scheme.MustEdgeLabel(1, 2), scheme.MustEdgeLabel(2, 3)}
//	ok, err := ftc.Connected(s, t, f) // false: 2 is cut off from 0
//
// # Serving many probes of one failure event
//
// Connected re-validates and re-compiles its fault slice on every call. The
// deployment pattern is "one failure event, many probes", so compile the
// fault set once and probe it:
//
//	fs, err := ftc.NewFaultSet(f)
//	if err != nil { ... }
//	ok, err := fs.Connected(s, t)        // zero-alloc steady state
//	oks, err := fs.ConnectedBatch(pairs) // many probes in one call
//	sess, err := fs.Session()            // eager closure, multi-component
//
// FaultSet probes are safe from concurrent goroutines.
//
// # Scheme variants
//
// Four constructions share the same framework and query machinery, matching
// the rows of Table 1 in the paper:
//
//   - WithDeterministic (default): Reed–Solomon outdetect sketches over the
//     deterministic NetFind ε-net hierarchy. Full query support,
//     deterministic, near-linear construction.
//   - WithGreedyNet: the polynomial-time alternative deterministic
//     sparsification (the paper's second variant slot).
//   - WithRandomized: Reed–Solomon sketches over a random sampling
//     hierarchy — the paper's improved randomized scheme (full support,
//     smaller labels).
//   - WithAGM: the Dory–Parter graph-sketch baseline (whp query support;
//     see WithAGMReps to trade label size for failure probability).
package ftc

import (
	"fmt"

	"repro/internal/ancestry"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/hierarchy"
)

// VertexLabel is the O(log n)-bit label assigned to a vertex.
type VertexLabel = core.VertexLabel

// EdgeLabel is the label assigned to an edge; for the deterministic scheme
// it is O(f² log³ n) bits.
type EdgeLabel = core.EdgeLabel

// Re-exported sentinel errors; test with errors.Is.
var (
	// ErrLabelMismatch: labels from different graphs/constructions mixed
	// in one query.
	ErrLabelMismatch = core.ErrLabelMismatch
	// ErrStaleLabel: labels from different generations of one dynamic
	// Network mixed in one query — the topology changed under the older
	// label, so the decoder fails fast instead of answering against a
	// graph that no longer exists. Wraps ErrLabelMismatch.
	ErrStaleLabel = core.ErrStaleLabel
	// ErrTooManyFaults: more (distinct) faults than the construction's
	// budget f.
	ErrTooManyFaults = core.ErrTooManyFaults
	// ErrDecode: outdetect decoding failed — the measured whp failure of
	// the AGM baseline, or a practical-threshold overflow surfaced as an
	// error instead of a wrong answer (DESIGN.md §3.4).
	ErrDecode = core.ErrDecode
)

// Scheme is a built f-FTC labeling of one graph.
type Scheme struct {
	g     *graph.Graph
	inner *core.Scheme
}

type options struct {
	params core.Params
}

// Option configures New.
type Option func(*options)

// WithMaxFaults sets the fault budget f (default 2).
func WithMaxFaults(f int) Option {
	return func(o *options) { o.params.MaxFaults = f }
}

// WithDeterministic selects the headline deterministic scheme (NetFind
// hierarchy). This is the default.
func WithDeterministic() Option {
	return func(o *options) { o.params.Kind = core.KindDetNetFind }
}

// WithGreedyNet selects the polynomial-time greedy ε-net deterministic
// variant.
func WithGreedyNet() Option {
	return func(o *options) { o.params.Kind = core.KindDetGreedy }
}

// WithRandomized selects the randomized Reed–Solomon scheme (sampling
// hierarchy) with the given seed. Full query support; smaller labels than
// the deterministic scheme.
func WithRandomized(seed int64) Option {
	return func(o *options) {
		o.params.Kind = core.KindRandRS
		o.params.Seed = seed
	}
}

// WithAGM selects the Dory–Parter AGM-sketch baseline with the given seed
// (whp query support).
func WithAGM(seed int64) Option {
	return func(o *options) {
		o.params.Kind = core.KindAGM
		o.params.Seed = seed
	}
}

// WithAGMReps overrides the AGM repetition count: larger values push the
// failure probability down (the whp→full blow-up of DP21 footnote 4 scales
// repetitions by f).
func WithAGMReps(reps int) Option {
	return func(o *options) { o.params.AGMReps = reps }
}

// WithThreshold overrides the Reed–Solomon threshold function k(f, m). The
// default is the practical hierarchy.DefaultThreshold; pass
// WithStrictTheoryThreshold for the worst-case Lemma 5 constant.
func WithThreshold(fn func(f, m int) int) Option {
	return func(o *options) { o.params.Threshold = fn }
}

// WithStrictTheoryThreshold uses the full worst-case threshold
// 6(2f+1)²·log₂m of Lemma 5. Labels become very large; meant for
// small-instance validation.
func WithStrictTheoryThreshold() Option {
	return WithThreshold(hierarchy.StrictTheoryThreshold)
}

// WithHeadroom sets how many incrementally-inserted edges a dynamic
// Network can attach at any one vertex before a commit falls back to a
// full rebuild (default core.DefaultAuxSlack). Only meaningful with Open;
// schemes built by New always use dense numbering.
func WithHeadroom(slots int) Option {
	return func(o *options) { o.params.AuxSlack = slots }
}

// New builds an f-FTC labeling scheme for the undirected simple graph on n
// vertices with the given edges. The graph may be disconnected; self-loops
// and duplicate edges are rejected.
func New(n int, edges [][2]int, opts ...Option) (*Scheme, error) {
	g := graph.New(n)
	for _, e := range edges {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			return nil, fmt.Errorf("ftc: %w", err)
		}
	}
	return NewFromGraph(g, opts...)
}

// NewFromGraph builds a scheme over an already-assembled internal graph. It
// is the entry point used by the benchmark harness and the application
// layers; New is the friendlier public constructor.
func NewFromGraph(g *graph.Graph, opts ...Option) (*Scheme, error) {
	o := options{params: core.Params{MaxFaults: 2, Kind: core.KindDetNetFind}}
	for _, opt := range opts {
		opt(&o)
	}
	// Static schemes always use dense numbering: WithHeadroom only applies
	// to Open, and a stray headroom option must not silently change the
	// labeling (and its token) of a one-shot build.
	o.params.AuxSlack = 0
	inner, err := core.Build(g, o.params)
	if err != nil {
		return nil, fmt.Errorf("ftc: %w", err)
	}
	return &Scheme{g: g, inner: inner}, nil
}

// N returns the vertex count.
func (s *Scheme) N() int { return s.g.N() }

// M returns the edge count.
func (s *Scheme) M() int { return s.g.M() }

// MaxFaults returns the fault budget f.
func (s *Scheme) MaxFaults() int { return s.inner.MaxFaults() }

// Generation returns the scheme's generation stamp: 0 for schemes built by
// New, and the committed generation for snapshots of a dynamic Network.
func (s *Scheme) Generation() uint64 { return s.inner.Generation() }

// VertexLabel returns the label of vertex v.
func (s *Scheme) VertexLabel(v int) VertexLabel { return s.inner.VertexLabel(v) }

// EdgeLabel returns an independent copy of the label of edge {u, v}.
func (s *Scheme) EdgeLabel(u, v int) (EdgeLabel, error) {
	idx := s.g.EdgeIndex(u, v)
	if idx < 0 {
		return EdgeLabel{}, fmt.Errorf("ftc: no edge (%d,%d)", u, v)
	}
	return s.EdgeLabelByIndex(idx), nil
}

// MustEdgeLabel is EdgeLabel that panics on a missing edge — convenient in
// examples and tests.
func (s *Scheme) MustEdgeLabel(u, v int) EdgeLabel {
	l, err := s.EdgeLabel(u, v)
	if err != nil {
		panic(err)
	}
	return l
}

// EdgeLabelByIndex returns an independent copy of the label of the i-th
// inserted edge. A lazily loaded scheme decodes a fresh label per read,
// which is already the caller's; only a payload shared with the scheme's
// storage is copied.
func (s *Scheme) EdgeLabelByIndex(i int) EdgeLabel {
	l := s.inner.EdgeLabel(i)
	if s.inner.EdgeLabelsShared() {
		l.Out = append([]uint64(nil), l.Out...)
	}
	return l
}

// EdgeEnds returns the two ancestry labels of the i-th inserted edge's
// label, its Parent and Child, without its payload: a loaded scheme reads
// them from the label's header, or rebuilds them from a short label, and
// decodes nothing else. The routing tables are compiled from them.
func (s *Scheme) EdgeEnds(i int) (parent, child ancestry.Label) { return s.inner.EdgeEnds(i) }

// FaultSet is a compiled, immutable fault set: the fault labels are parsed,
// validated, and deduplicated once (per spanning-forest component), after
// which Connected/ConnectedBatch/Session probes are cheap, allocation-free
// in the steady state, and safe from concurrent goroutines. Like every
// decoder-side object, it is built purely from labels.
type FaultSet = core.FaultSet

// NewFaultSet compiles fault-edge labels into a reusable FaultSet. It
// enforces the global fault budget |F| ≤ f (ErrTooManyFaults) and rejects
// mixed-scheme labels (ErrLabelMismatch). An empty slice yields the trivial
// FaultSet under which connectivity degenerates to same-component.
func NewFaultSet(faults []EdgeLabel) (*FaultSet, error) {
	return core.CompileFaults(faults)
}

// Connected is the universal decoder: it decides s–t connectivity under the
// fault set F given only labels. Works for labels produced by any Scheme of
// this package (the scheme variant is encoded in the labels themselves).
//
// Connected compiles a throwaway FaultSet per call; when the same fault set
// is probed repeatedly, build it once with NewFaultSet and probe that.
func Connected(s, t VertexLabel, faults []EdgeLabel) (bool, error) {
	return core.Connected(s, t, faults)
}

// ConnectedBasic answers with the unoptimized §7.2 query algorithm. Results
// always match Connected; exposed for the query-time experiments.
func ConnectedBasic(s, t VertexLabel, faults []EdgeLabel) (bool, error) {
	return core.ConnectedBasic(s, t, faults)
}

// MarshalVertexLabel encodes a vertex label as a self-contained byte string.
func MarshalVertexLabel(l VertexLabel) []byte { return core.MarshalVertexLabel(l) }

// UnmarshalVertexLabel decodes a vertex label.
func UnmarshalVertexLabel(b []byte) (VertexLabel, error) { return core.UnmarshalVertexLabel(b) }

// MarshalEdgeLabel encodes an edge label as a self-contained byte string.
func MarshalEdgeLabel(l EdgeLabel) []byte { return core.MarshalEdgeLabel(l) }

// UnmarshalEdgeLabel decodes an edge label.
func UnmarshalEdgeLabel(b []byte) (EdgeLabel, error) { return core.UnmarshalEdgeLabel(b) }

// Stats summarizes label sizes — the paper's headline metric.
type Stats struct {
	VertexLabelBits  int // per-vertex label size (constant across vertices)
	MaxEdgeLabelBits int // maximum per-edge label size
	Kind             string
	Threshold        int // Reed–Solomon threshold k (0 for AGM)
	HierarchyDepth   int // number of sparsification levels (0 for AGM)
}

// Stats returns the size accounting of the scheme.
func (s *Scheme) Stats() Stats {
	spec := s.inner.Spec()
	st := Stats{
		MaxEdgeLabelBits: s.inner.MaxEdgeLabelBits(),
		Kind:             spec.Kind.String(),
		Threshold:        spec.K,
		HierarchyDepth:   spec.Levels,
	}
	if s.g.N() > 0 {
		st.VertexLabelBits = core.VertexLabelBits
	}
	return st
}

// Graph exposes the underlying internal graph (read-only) for the harness
// and application layers.
func (s *Scheme) Graph() *graph.Graph { return s.g }

// Inner exposes the core scheme for white-box experiments (hierarchy depth,
// spanning forest, etc.). Not part of the stable API surface.
func (s *Scheme) Inner() *core.Scheme { return s.inner }
