package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/rs"
	"repro/internal/workload"
)

// TestCorruptedTokenRejected: flipping the token in any label must be
// detected, never silently processed.
func TestCorruptedTokenRejected(t *testing.T) {
	g := workload.Cycle(8)
	s := mustBuild(t, g, Params{MaxFaults: 2})
	sl, tl := s.VertexLabel(0), s.VertexLabel(4)
	bad := sl
	bad.Token ^= 1
	if _, err := Connected(bad, tl, nil); err == nil {
		t.Fatal("corrupted vertex token accepted")
	}
	el := s.EdgeLabel(0)
	el.Token ^= 1
	if _, err := Connected(sl, tl, []EdgeLabel{el}); err == nil {
		t.Fatal("corrupted edge token accepted")
	}
}

// TestCorruptedPayloadNeverPanics: random bit flips in the outdetect payload
// must never panic. With the fault edge's own syndrome corrupted the decoder
// either detects the inconsistency (error), or reaches a wrong-but-decodable
// state; the contract under corruption is graceful failure, not silence
// about panics.
func TestCorruptedPayloadNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.ErdosRenyi(24, 0.2, true, rng)
	s := mustBuild(t, g, Params{MaxFaults: 3})
	forest := s.Forest
	for trial := 0; trial < 200; trial++ {
		faults := workload.TreeEdgeFaults(g, forest, 1+rng.Intn(3), rng)
		fl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			orig := s.EdgeLabel(e)
			copied := orig
			copied.Out = append([]uint64(nil), orig.Out...)
			// Flip a random bit in the payload.
			if len(copied.Out) > 0 {
				w := rng.Intn(len(copied.Out))
				copied.Out[w] ^= 1 << uint(rng.Intn(64))
			}
			fl[i] = copied
		}
		sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
		// Must not panic; errors are acceptable and expected.
		_, _ = Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
	}
}

// TestCorruptedAncestryHandled: garbage ancestry labels in faults must yield
// errors, not panics or silent misbehavior.
func TestCorruptedAncestryHandled(t *testing.T) {
	g := workload.Cycle(6)
	s := mustBuild(t, g, Params{MaxFaults: 2})
	el := s.EdgeLabel(0)
	el.Parent.Pre, el.Parent.Post = 999, 1000 // not an ancestor of Child
	if _, err := Connected(s.VertexLabel(0), s.VertexLabel(3), []EdgeLabel{el}); err == nil {
		t.Fatal("non-ancestor fault pair accepted")
	}
}

// TestQuickConnectivityInvariants drives testing/quick over random small
// instances: the decoder must agree with ground truth for arbitrary fault
// subsets within budget.
func TestQuickConnectivityInvariants(t *testing.T) {
	type seedCase struct {
		Seed   int64
		FaultA uint8
		FaultB uint8
		S, T   uint8
	}
	rngSchemes := map[int64]*Scheme{}
	graphs := map[int64]*graph.Graph{}
	getScheme := func(seed int64) (*graph.Graph, *Scheme) {
		seed %= 5
		if s, ok := rngSchemes[seed]; ok {
			return graphs[seed], s
		}
		rng := rand.New(rand.NewSource(seed))
		g := workload.ErdosRenyi(16+int(seed)*3, 0.25, true, rng)
		s, err := Build(g, Params{MaxFaults: 2})
		if err != nil {
			t.Fatal(err)
		}
		rngSchemes[seed] = s
		graphs[seed] = g
		return g, s
	}
	check := func(c seedCase) bool {
		g, s := getScheme(c.Seed)
		fa := int(c.FaultA) % g.M()
		fb := int(c.FaultB) % g.M()
		sv := int(c.S) % g.N()
		tv := int(c.T) % g.N()
		faults := []int{fa, fb}
		fl := []EdgeLabel{s.EdgeLabel(fa), s.EdgeLabel(fb)}
		got, err := Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
		if err != nil {
			return false
		}
		return got == graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(9))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPropSubtreeXORIdentity verifies Proposition 4 directly on built
// schemes: the outdetect sum of a fragment equals the XOR of its boundary
// edges' labels — exercised by comparing the decoder's two query paths,
// which consume that identity differently.
func TestQuickPropSubtreeXORIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := workload.ErdosRenyi(30, 0.15, true, rng)
	s := mustBuild(t, g, Params{MaxFaults: 3})
	forest := s.Forest
	for trial := 0; trial < 150; trial++ {
		faults := workload.TreeEdgeFaults(g, forest, 1+rng.Intn(3), rng)
		fl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
		}
		sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
		fast, errF := Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
		basic, errB := ConnectedBasic(s.VertexLabel(sv), s.VertexLabel(tv), fl)
		if (errF == nil) != (errB == nil) {
			t.Fatalf("fast/basic error disagreement: %v vs %v", errF, errB)
		}
		if errF == nil && fast != basic {
			t.Fatalf("fast=%v basic=%v for (%d,%d,%v)", fast, basic, sv, tv, faults)
		}
	}
}

// TestThresholdAblation measures DESIGN.md §3.4 directly: shrinking the
// practical threshold k must degrade into *detected* decode errors, never
// silent wrong answers.
func TestThresholdAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := workload.ErdosRenyi(60, 0.25, true, rng)
	const f = 4
	for _, divisor := range []int{1, 4, 16} {
		s, err := Build(g, Params{
			MaxFaults: f,
			Threshold: func(f, m int) int {
				k := f * f / divisor
				if k < 2 {
					k = 2
				}
				return k
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		wrong, failed := 0, 0
		forest := s.Forest
		for q := 0; q < 200; q++ {
			faults := workload.TreeEdgeFaults(g, forest, 1+rng.Intn(f), rng)
			fl := make([]EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = s.EdgeLabel(e)
			}
			sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
			got, err := Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			if err != nil {
				failed++
				continue
			}
			if got != graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv) {
				wrong++
			}
		}
		if wrong > 0 {
			t.Fatalf("divisor %d: %d silent wrong answers (failures must be detected)", divisor, wrong)
		}
		t.Logf("k divisor %d: %d detected decode failures / 200", divisor, failed)
	}
}

// TestRoutePlanSteps sanity-checks the Corollary 2 witness: plans end at the
// destination and crossings reference valid preorders.
func TestRoutePlanSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	g := workload.ErdosRenyi(40, 0.12, true, rng)
	s := mustBuild(t, g, Params{MaxFaults: 3})
	forest := s.Forest
	for trial := 0; trial < 100; trial++ {
		faults := workload.TreeEdgeFaults(g, forest, 1+rng.Intn(3), rng)
		fl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
		}
		sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
		plan, ok, err := RoutePlan(s.VertexLabel(sv), s.VertexLabel(tv), fl)
		if err != nil {
			t.Fatal(err)
		}
		want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
		if ok != want {
			t.Fatalf("RoutePlan reachable=%v, want %v", ok, want)
		}
		if !ok {
			continue
		}
		if len(plan) == 0 || plan[len(plan)-1].Far != 0 ||
			plan[len(plan)-1].Near != s.VertexLabel(tv).Anc.Pre {
			t.Fatalf("plan does not end at destination: %+v", plan)
		}
		for _, step := range plan[:len(plan)-1] {
			if step.Near == 0 || step.Far == 0 {
				t.Fatalf("crossing step with zero preorder: %+v", step)
			}
		}
	}
}

// TestDecodeOutgoingLevelOrder is a white-box check of the Lemma 2 scan: a
// payload whose sparsest nonzero level holds one edge decodes to exactly
// that edge even if denser levels below are overloaded.
func TestDecodeOutgoingLevelOrder(t *testing.T) {
	spec := OutSpec{Kind: KindDetNetFind, K: 4, Levels: 3}
	payload := make([]uint64, spec.Words())
	stride := spec.LevelWords()
	// Level 0 (densest): 9 > K edges — garbage if trusted.
	lvl0 := rs.Sketch(payload[0:stride])
	for i := 1; i <= 9; i++ {
		lvl0.AddEdge(uint64(i)<<32 | uint64(i+1))
	}
	// Level 2 (sparsest): exactly one edge.
	lvl2 := rs.Sketch(payload[2*stride : 3*stride])
	want := uint64(7)<<32 | uint64(9)
	lvl2.AddEdge(want)
	ids, err := spec.DecodeOutgoing(payload, spec.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != want {
		t.Fatalf("ids = %v, want [%#x]", ids, want)
	}
}
