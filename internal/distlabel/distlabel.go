// Package distlabel implements the fault-tolerant approximate distance
// labeling of Corollary 1. The paper obtains it from the f-FTC scheme as a
// black box via the Dory–Parter reduction whose formalism it explicitly
// omits; this implementation follows the same black-box shape (DESIGN.md
// §3.5): FTC labelings over power-of-two weight-threshold subgraphs of an
// f-fault-tolerant (2κ−1)-bottleneck spanner.
//
// A query binary-searches for the smallest scale 2^i at which s and t are
// connected under the faults. This pins the fault-tolerant bottleneck
// distance within a provable factor 2(2κ−1) and brackets the true s–t
// distance in G − F between Scale/(2κ−1)/2 and (n−1)·Scale; the measured
// stretch of the point estimate is reported in EXPERIMENTS.md (E8).
package distlabel

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/spanner"
)

// Params configures Build.
type Params struct {
	// MaxFaults is the fault budget f.
	MaxFaults int
	// Kappa is the spanner stretch parameter κ ≥ 1 (stretch 2κ−1). Larger
	// κ gives sparser per-scale graphs and smaller labels, at the cost of
	// a wider bottleneck bracket.
	Kappa int
	// Kind forwards the FTC scheme variant (zero = deterministic).
	Kind core.Kind
	// Seed drives randomized FTC variants.
	Seed int64
}

// Scheme holds per-scale FTC labelings over the spanner.
type Scheme struct {
	params Params
	n      int
	scales []int64 // ascending weight thresholds (powers of two)
	ftc    []*core.Scheme
	sp     *spanner.Spanner
	// scaleOf[e] is the first scale index at which g's edge e is present
	// in the spanner, or -1 when the edge is not in the spanner.
	scaleOf []int
}

// VertexLabel carries one FTC vertex label per scale.
type VertexLabel struct {
	Scales []core.VertexLabel
}

// EdgeLabel carries one FTC edge label per scale the edge participates in.
// Faults on edges outside the spanner are provably ignorable (the spanner
// retains f+1 edge-disjoint detours at comparable bottleneck).
type EdgeLabel struct {
	InSpanner  bool
	FirstScale int
	Weight     int64
	Scales     []core.EdgeLabel
}

// Result is a distance query answer.
type Result struct {
	// Connected reports s–t connectivity in G − F.
	Connected bool
	// Scale is the smallest power-of-two threshold at which s and t are
	// connected in the spanner minus faults (0 when disconnected).
	Scale int64
	// BottleneckUpper ≥ bottleneck_{G−F}(s,t): equals Scale.
	BottleneckUpper int64
	// BottleneckLower ≤ bottleneck_{G−F}(s,t): Scale/2/(2κ−1), at least 1.
	BottleneckLower int64
	// DistanceUpper ≥ d_{G−F}(s,t): (n−1)·Scale.
	DistanceUpper int64
	// DistanceLower ≤ d_{G−F}(s,t): same as BottleneckLower.
	DistanceLower int64
}

// Build constructs the labeling. The graph must have positive integer
// weights (unweighted graphs work with all weights 1, collapsing to plain
// fault-tolerant connectivity).
func Build(g *graph.Graph, p Params) (*Scheme, error) {
	if g == nil {
		return nil, fmt.Errorf("distlabel: nil graph")
	}
	if p.Kappa < 1 {
		p.Kappa = 2
	}
	if p.MaxFaults < 0 {
		return nil, fmt.Errorf("distlabel: negative fault budget")
	}
	sp, err := spanner.BuildFT(g, p.MaxFaults, p.Kappa)
	if err != nil {
		return nil, fmt.Errorf("distlabel: %w", err)
	}
	var maxW int64 = 1
	for e := 0; e < sp.H.M(); e++ {
		if w := sp.H.Weight(e); w > maxW {
			maxW = w
		}
	}
	s := &Scheme{params: p, n: g.N(), sp: sp, scaleOf: make([]int, g.M())}
	for i := range s.scaleOf {
		s.scaleOf[i] = -1
	}
	for t := int64(1); ; t *= 2 {
		s.scales = append(s.scales, t)
		if t >= maxW {
			break
		}
	}
	for si, thr := range s.scales {
		sub := graph.New(g.N())
		// subEdgeOf[e] maps a g edge to its index in sub (dense per
		// scale; rebuilt each level).
		for hIdx := 0; hIdx < sp.H.M(); hIdx++ {
			if sp.H.Weight(hIdx) > thr {
				continue
			}
			e := sp.OrigEdge[hIdx]
			if _, err := sub.AddEdge(sp.H.Edges[hIdx].U, sp.H.Edges[hIdx].V); err != nil {
				return nil, fmt.Errorf("distlabel: scale %d: %w", si, err)
			}
			if s.scaleOf[e] == -1 {
				s.scaleOf[e] = si
			}
		}
		ftc, err := core.Build(sub, core.Params{
			MaxFaults: p.MaxFaults,
			Kind:      p.Kind,
			Seed:      p.Seed + int64(si)*7919,
		})
		if err != nil {
			return nil, fmt.Errorf("distlabel: scale %d: %w", si, err)
		}
		s.ftc = append(s.ftc, ftc)
	}
	return s, nil
}

// Scales returns the number of weight scales.
func (s *Scheme) Scales() int { return len(s.scales) }

// VertexLabel returns vertex v's distance label.
func (s *Scheme) VertexLabel(v int) VertexLabel {
	out := VertexLabel{Scales: make([]core.VertexLabel, len(s.ftc))}
	for i, f := range s.ftc {
		out.Scales[i] = f.VertexLabel(v)
	}
	return out
}

// EdgeLabel returns g-edge e's distance label.
func (s *Scheme) EdgeLabel(e int) EdgeLabel {
	first := s.scaleOf[e]
	out := EdgeLabel{InSpanner: first >= 0, FirstScale: first}
	if !out.InSpanner {
		return out
	}
	hIdx := s.sp.SpannerEdge[e]
	out.Weight = s.sp.H.Weight(hIdx)
	for si := first; si < len(s.ftc); si++ {
		// The per-scale subgraphs insert spanner edges in H-index
		// order among those under the threshold; recover the edge's
		// per-scale index by counting.
		idx := s.scaleEdgeIndex(si, hIdx)
		out.Scales = append(out.Scales, s.ftc[si].EdgeLabel(idx))
	}
	return out
}

// scaleEdgeIndex returns the per-scale FTC edge index of spanner edge hIdx.
func (s *Scheme) scaleEdgeIndex(si int, hIdx int) int {
	thr := s.scales[si]
	idx := 0
	for j := 0; j < hIdx; j++ {
		if s.sp.H.Weight(j) <= thr {
			idx++
		}
	}
	return idx
}

// LabelBits returns the total per-vertex label size in bits (sum over
// scales) and the maximum per-edge label size.
func (s *Scheme) LabelBits() (vertexBits, maxEdgeBits int) {
	vertexBits = len(s.ftc) * core.VertexLabelBits
	for e := 0; e < len(s.scaleOf); e++ {
		l := s.EdgeLabel(e)
		total := 0
		for _, el := range l.Scales {
			total += core.EdgeLabelBits(el)
		}
		if total > maxEdgeBits {
			maxEdgeBits = total
		}
	}
	return vertexBits, maxEdgeBits
}

// ErrBadQuery is returned for malformed label sets.
var ErrBadQuery = errors.New("distlabel: malformed query labels")

// Query estimates the s–t distance under faults from labels alone.
func Query(sv, tv VertexLabel, faults []EdgeLabel, n int, kappa int) (Result, error) {
	if len(sv.Scales) == 0 || len(sv.Scales) != len(tv.Scales) {
		return Result{}, fmt.Errorf("%w: scale counts differ", ErrBadQuery)
	}
	scales := len(sv.Scales)
	check := func(si int) (bool, error) {
		var fl []core.EdgeLabel
		for _, f := range faults {
			if !f.InSpanner || f.FirstScale > si {
				continue
			}
			fl = append(fl, f.Scales[si-f.FirstScale])
		}
		return core.Connected(sv.Scales[si], tv.Scales[si], fl)
	}
	// Binary search for the smallest connected scale (monotone: larger
	// scales have more edges and the same or fewer applicable faults).
	top, err := check(scales - 1)
	if err != nil {
		return Result{}, err
	}
	if !top {
		return Result{Connected: false}, nil
	}
	lo, hi := 0, scales-1
	for lo < hi {
		mid := (lo + hi) / 2
		ok, err := check(mid)
		if err != nil {
			return Result{}, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	scale := int64(1) << uint(lo)
	stretch := int64(2*kappa - 1)
	res := Result{
		Connected:       true,
		Scale:           scale,
		BottleneckUpper: scale,
		BottleneckLower: maxInt64(1, scale/2/stretch),
		DistanceUpper:   int64(n-1) * scale,
	}
	res.DistanceLower = res.BottleneckLower
	return res, nil
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
