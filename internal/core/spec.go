// Package core assembles the paper's f-FTC labeling framework (§3, §5–§7):
// the auxiliary-graph transform (Proposition 1), the tree-edge scheme built
// from ancestry labels plus an outdetect labeling (Lemma 1), the top-down
// hierarchy decoder (Lemma 2), and both the basic (§7.2) and the heap-driven
// fast (§7.6) query algorithms, with adaptive Reed–Solomon prefix decoding
// (Appendix B).
//
// The package is generic over the outdetect substrate: the deterministic
// Reed–Solomon hierarchies (NetFind or greedy ε-net), the randomized
// Reed–Solomon sampling hierarchy, and the AGM baseline sketch all produce
// GF(2)-linear payloads described by an OutSpec, so the surrounding
// machinery — which is exactly the part the paper inherits from Dory–Parter
// — is shared verbatim across all four scheme rows of Table 1.
package core

import (
	"errors"
	"fmt"

	"repro/internal/ancestry"
	"repro/internal/rs"
	"repro/internal/sketch"
)

// Kind selects the outdetect substrate.
type Kind uint8

const (
	// KindDetNetFind is the paper's headline scheme: Reed–Solomon
	// outdetect over the deterministic NetFind hierarchy
	// (Theorem 1, near-linear construction, O(f² log³ n)-bit labels).
	KindDetNetFind Kind = iota + 1
	// KindDetGreedy replaces NetFind with the polynomial-time greedy
	// canonical ε-net (the [MDG18] slot; see DESIGN.md §3.5).
	KindDetGreedy
	// KindRandRS keeps the Reed–Solomon outdetect but randomizes the
	// hierarchy by edge sampling (the paper's improved randomized scheme
	// with full query support, Table 1 row 3).
	KindRandRS
	// KindAGM is the Dory–Parter second scheme: randomized AGM sketches,
	// whp or full query support depending on the repetition count.
	KindAGM
)

func (k Kind) String() string {
	switch k {
	case KindDetNetFind:
		return "det-netfind"
	case KindDetGreedy:
		return "det-greedy"
	case KindRandRS:
		return "rand-rs"
	case KindAGM:
		return "agm"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// OutSpec describes the shape, parameters, and (for randomized kinds) seed
// of the outdetect payload carried by every edge label. It is part of each
// label so the decoder stays universal.
type OutSpec struct {
	Kind    Kind
	K       int   // Reed–Solomon threshold per hierarchy level (RS kinds)
	Levels  int   // hierarchy depth (RS kinds)
	Reps    int   // AGM repetitions
	Buckets int   // AGM sampling levels
	Seed    int64 // AGM hash seed
}

// Words returns the []uint64 length of one outdetect payload. A
// Reed–Solomon payload is Levels segments of LevelWords words each.
func (s OutSpec) Words() int {
	switch s.Kind {
	case KindAGM:
		return sketch.Spec{Reps: s.Reps, Buckets: s.Buckets, Seed: s.Seed}.Words()
	default:
		return s.Levels * s.LevelWords()
	}
}

// LevelWords returns the length of one hierarchy level's segment of a
// Reed–Solomon payload: the k stored power sums S_1, S_3, …, S_{2k−1} of
// an rs.Sketch, which determine the paper's 2k (DESIGN.md §3.1).
func (s OutSpec) LevelWords() int { return s.K }

// fromLegacy converts a Reed–Solomon payload in the legacy layout — 2k
// words per level, S_1…S_2k — to the stored one, k words per level, with
// rs.OddSums. It reports false for the AGM kind, a payload that is not
// 2·Words() long, or a level with an even sum that is not a square. Both
// legacy codecs go through it: the edge-label decoder and ApplyDelta's
// XOR masks.
func (s OutSpec) fromLegacy(full []uint64) ([]uint64, bool) {
	words, lw := s.Words(), s.LevelWords()
	if s.Kind == KindAGM || len(full) != 2*words {
		return nil, false
	}
	out := make([]uint64, words)
	for lvl := 0; lvl < s.Levels; lvl++ {
		if !rs.OddSums(out[lvl*lw:(lvl+1)*lw], full[2*lvl*lw:2*(lvl+1)*lw]) {
			return nil, false
		}
	}
	return out, true
}

// ErrDecode wraps outdetect decoding failures: impossible for the
// deterministic kinds when the hierarchy is good (and detected rather than
// silent when a practical threshold is exceeded — DESIGN.md §3.4), and the
// measured whp failure mode for KindAGM.
var ErrDecode = errors.New("core: outdetect decoding failed")

// DecodeOutgoing recovers outgoing edge IDs from an aggregated payload.
// A nil slice with nil error means the boundary is empty. budget is the
// adaptive Reed–Solomon prefix budget (Appendix B): the number of boundary
// faults of the queried set scaled to a threshold; values ≤ 0 or ≥ K mean
// "use the full threshold". On a failed prefix decode the full threshold is
// retried before giving up, so adaptivity never costs correctness.
func (s OutSpec) DecodeOutgoing(payload []uint64, budget int) ([]uint64, error) {
	if len(payload) != s.Words() {
		return nil, fmt.Errorf("%w: payload has %d words, spec wants %d", ErrDecode, len(payload), s.Words())
	}
	if s.Kind == KindAGM {
		ids, err := sketch.Spec{Reps: s.Reps, Buckets: s.Buckets, Seed: s.Seed}.Decode(payload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrDecode, err)
		}
		return ids, nil
	}
	if budget <= 0 || budget > s.K {
		budget = s.K
	}
	stride := s.LevelWords()
	// Scan levels from the sparsest down (Lemma 2 / DESIGN.md §3.3): the
	// first level with a nonzero syndrome is guaranteed to hold between 1
	// and K outgoing edges.
	for lvl := s.Levels - 1; lvl >= 0; lvl-- {
		syn := rs.Sketch(payload[lvl*stride : (lvl+1)*stride])
		if syn.IsZero() {
			continue
		}
		ids, err := syn.Decode(budget)
		if err != nil && budget < s.K {
			ids, err = syn.Decode(s.K)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: level %d: %v", ErrDecode, lvl, err)
		}
		return ids, nil
	}
	return nil, nil
}

// VertexLabel is the O(log n)-bit per-vertex label: an ancestry label plus
// the scheme token that guards against mixing labels across graphs or
// constructions.
//
// Gen is the generation stamp of a dynamic network (zero for schemes built
// by Build). It is folded into Token — so labels from different generations
// never validate against each other — and carried separately, in memory
// only, so that the decoder can report the mix as ErrStaleLabel instead of
// a bare ErrLabelMismatch. The wire encoding omits it.
type VertexLabel struct {
	Token uint64
	Gen   uint64
	Anc   ancestry.Label
}

// EdgeLabel is the per-edge label: the ancestry labels of the two endpoints
// of σ(e) in the auxiliary spanning tree T′ (Parent being the endpoint
// nearer the root), the outdetect subtree aggregate of Proposition 4, and
// enough header data (spec, fault budget, token) to keep the decoder
// universal. Gen is the in-memory generation stamp (see VertexLabel).
type EdgeLabel struct {
	Token     uint64
	Gen       uint64
	MaxFaults int
	Spec      OutSpec
	Parent    ancestry.Label
	Child     ancestry.Label
	Out       []uint64
}

// edgeID packs the preorders of the two T′-endpoints of a non-tree edge into
// a nonzero GF(2^64) element: high word the smaller preorder, low word the
// larger. Preorders start at 1, so the ID is never zero and never collides
// across distinct edges.
func edgeID(a, b uint32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// edgeIDParts splits an edge ID back into its two endpoint preorders.
func edgeIDParts(id uint64) (uint32, uint32) {
	return uint32(id >> 32), uint32(id)
}
