package core

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/gf"
	"repro/internal/workload"
)

// parityParams is one Build configuration per scheme kind, sized so that
// even the polynomial-time greedy hierarchy finishes quickly.
func parityParams() []Params {
	return []Params{
		{MaxFaults: 3, Kind: KindDetNetFind},
		{MaxFaults: 2, Kind: KindDetGreedy},
		{MaxFaults: 3, Kind: KindRandRS, Seed: 5},
		{MaxFaults: 3, Kind: KindAGM, Seed: 6},
	}
}

// TestParallelSequentialLabelParity is the acceptance gate of the parallel
// construction pipeline: for every scheme kind, a Build run on a forced
// multi-worker pool must produce byte-identical marshaled labels to a Build
// run on the sequential (single-worker) path.
func TestParallelSequentialLabelParity(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	g := workload.ErdosRenyi(96, 0.09, true, rng)
	for _, p := range parityParams() {
		p := p
		t.Run(p.Kind.String(), func(t *testing.T) {
			defer func(old int) { buildWorkers = old }(buildWorkers)
			buildWorkers = 1
			seq := mustBuild(t, g, p)
			buildWorkers = 4
			par := mustBuild(t, g, p)

			for v := 0; v < g.N(); v++ {
				sb := MarshalVertexLabel(seq.VertexLabel(v))
				pb := MarshalVertexLabel(par.VertexLabel(v))
				if !bytes.Equal(sb, pb) {
					t.Fatalf("vertex %d: parallel label differs from sequential", v)
				}
			}
			for e := 0; e < g.M(); e++ {
				sb := MarshalEdgeLabel(seq.EdgeLabel(e))
				pb := MarshalEdgeLabel(par.EdgeLabel(e))
				if !bytes.Equal(sb, pb) {
					t.Fatalf("edge %d: parallel label differs from sequential", e)
				}
			}
		})
	}
}

// TestBuildMatchesDefinitionalReference re-derives every Reed–Solomon
// outdetect payload with the pre-overhaul algorithm on the paper's full
// sketch — per level, XOR each level edge's 2k power sums α^1…α^2k (a
// gf.Mul chain) into both endpoint blocks, densely fold child blocks into
// parents in reverse preorder, copy every child-subtree block. Every level
// of every reference payload must satisfy S_2j = S_j², and the optimized
// pipeline (odd powers only, power arena, dirty folding, leaf shortcut)
// must reproduce its odd sums S_1, S_3, … word for word.
func TestBuildMatchesDefinitionalReference(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	g := workload.ErdosRenyi(80, 0.1, true, rng)
	for _, p := range []Params{
		{MaxFaults: 2, Kind: KindDetNetFind},
		{MaxFaults: 2, Kind: KindRandRS, Seed: 7},
	} {
		p := p
		t.Run(p.Kind.String(), func(t *testing.T) {
			s := mustBuild(t, g, p)
			a := buildAux(g, s.Forest, 0)
			spec := s.Spec()
			stride := 2 * spec.K // the paper's 2k syndromes per level
			nPrime := len(a.tprime.Parent)
			preOrder := make([]int, nPrime)
			for v := 0; v < nPrime; v++ {
				preOrder[a.anc.Of(v).Pre-1] = v
			}
			slotOf := map[int]int{}
			for j, e := range a.nonTree {
				slotOf[e] = j
			}
			want := make([][]uint64, g.M())
			for e := range want {
				want[e] = make([]uint64, spec.Levels*stride)
			}
			acc := make([]uint64, nPrime*stride)
			for lvl, level := range s.Hierarchy.Levels {
				for i := range acc {
					acc[i] = 0
				}
				for _, e := range level {
					j := slotOf[e]
					id := a.idOf(j)
					addAllPowers(acc[a.xVertex[j]*stride:(a.xVertex[j]+1)*stride], id)
					addAllPowers(acc[a.farEnd[j]*stride:(a.farEnd[j]+1)*stride], id)
				}
				for i := nPrime - 1; i >= 0; i-- {
					v := preOrder[i]
					par := a.tprime.Parent[v]
					if par < 0 {
						continue
					}
					for w := 0; w < stride; w++ {
						acc[par*stride+w] ^= acc[v*stride+w]
					}
				}
				for e := range g.Edges {
					child := a.childOf[e]
					copy(want[e][lvl*stride:(lvl+1)*stride], acc[child*stride:(child+1)*stride])
				}
			}
			for e := range g.Edges {
				got := s.EdgeLabel(e).Out
				if len(got) != spec.Levels*spec.K {
					t.Fatalf("%s: edge %d payload has %d words, want %d", p.Kind, e, len(got), spec.Levels*spec.K)
				}
				for lvl := 0; lvl < spec.Levels; lvl++ {
					full := want[e][lvl*stride : (lvl+1)*stride]
					for j := 1; j <= spec.K; j++ {
						if full[2*j-1] != gf.Sqr(full[j-1]) {
							t.Fatalf("%s: edge %d level %d: reference S_%d is not S_%d²", p.Kind, e, lvl, 2*j, j)
						}
					}
					for j := 0; j < spec.K; j++ {
						if w := got[lvl*spec.K+j]; w != full[2*j] {
							t.Fatalf("%s: edge %d level %d: S_%d got %#x, reference %#x", p.Kind, e, lvl, 2*j+1, w, full[2*j])
						}
					}
				}
			}
		})
	}
}

// addAllPowers XORs α, α², …, α^len(dst) into dst by the definitional
// gf.Mul chain.
func addAllPowers(dst []uint64, alpha uint64) {
	pow := alpha
	for j := range dst {
		dst[j] ^= pow
		pow = gf.Mul(pow, alpha)
	}
}
