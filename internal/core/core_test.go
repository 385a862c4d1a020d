package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/workload"
)

func mustBuild(t testing.TB, g *graph.Graph, p Params) *Scheme {
	t.Helper()
	s, err := Build(g, p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// queryLabels gathers the labels for a query.
func queryLabels(s *Scheme, sv, tv int, faults []int) (VertexLabel, VertexLabel, []EdgeLabel) {
	fl := make([]EdgeLabel, len(faults))
	for i, e := range faults {
		fl[i] = s.EdgeLabel(e)
	}
	return s.VertexLabel(sv), s.VertexLabel(tv), fl
}

// combinations invokes fn on every subset of [0, m) with size ≤ maxSize.
func combinations(m, maxSize int, fn func([]int)) {
	var cur []int
	var rec func(start int)
	rec = func(start int) {
		fn(append([]int(nil), cur...))
		if len(cur) == maxSize {
			return
		}
		for e := start; e < m; e++ {
			cur = append(cur, e)
			rec(e + 1)
			cur = cur[:len(cur)-1]
		}
	}
	rec(0)
}

// exhaustiveCheck verifies Connected (fast and basic) against BFS ground
// truth for every (s, t, F) with |F| ≤ f — the literal meaning of full query
// support.
func exhaustiveCheck(t *testing.T, g *graph.Graph, s *Scheme, f int) {
	t.Helper()
	queries := 0
	combinations(g.M(), f, func(faults []int) {
		set := workload.FaultSet(faults)
		for sv := 0; sv < g.N(); sv++ {
			for tv := sv + 1; tv < g.N(); tv++ {
				want := graph.ConnectedUnder(g, set, sv, tv)
				sl, tl, fl := queryLabels(s, sv, tv, faults)
				got, err := Connected(sl, tl, fl)
				if err != nil {
					t.Fatalf("Connected(%d,%d,F=%v): %v", sv, tv, faults, err)
				}
				if got != want {
					t.Fatalf("Connected(%d,%d,F=%v) = %v, want %v", sv, tv, faults, got, want)
				}
				gotBasic, err := ConnectedBasic(sl, tl, fl)
				if err != nil {
					t.Fatalf("ConnectedBasic(%d,%d,F=%v): %v", sv, tv, faults, err)
				}
				if gotBasic != want {
					t.Fatalf("ConnectedBasic(%d,%d,F=%v) = %v, want %v", sv, tv, faults, gotBasic, want)
				}
				queries++
			}
		}
	})
	if queries == 0 {
		t.Fatal("no queries executed")
	}
}

func smallGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return map[string]*graph.Graph{
		"path5":    workload.Grid(5, 1),
		"cycle6":   workload.Cycle(6),
		"k4":       workload.Complete(4),
		"k5":       workload.Complete(5),
		"grid3x3":  workload.Grid(3, 3),
		"petersen": workload.Petersen(),
		"er12":     workload.ErdosRenyi(12, 0.25, true, rng),
		"tree+2":   workload.RandomTreePlus(9, 2, rng),
	}
}

func TestExhaustiveSmallGraphsDeterministic(t *testing.T) {
	const f = 2
	for name, g := range smallGraphs(t) {
		g := g
		t.Run(name, func(t *testing.T) {
			s := mustBuild(t, g, Params{MaxFaults: f, Kind: KindDetNetFind})
			exhaustiveCheck(t, g, s, f)
		})
	}
}

func TestExhaustiveK4ThreeFaults(t *testing.T) {
	g := workload.Complete(4)
	s := mustBuild(t, g, Params{MaxFaults: 3, Kind: KindDetNetFind})
	exhaustiveCheck(t, g, s, 3)
}

func TestExhaustiveGreedyKind(t *testing.T) {
	for _, name := range []string{"k4", "grid3x3"} {
		g := smallGraphs(t)[name]
		t.Run(name, func(t *testing.T) {
			s := mustBuild(t, g, Params{MaxFaults: 2, Kind: KindDetGreedy})
			exhaustiveCheck(t, g, s, 2)
		})
	}
}

func TestExhaustiveRandRSKind(t *testing.T) {
	g := smallGraphs(t)["petersen"]
	s := mustBuild(t, g, Params{MaxFaults: 2, Kind: KindRandRS, Seed: 7})
	exhaustiveCheck(t, g, s, 2)
}

func TestExhaustiveStrictTheoryThreshold(t *testing.T) {
	// The worst-case Lemma 5 threshold, exercised end to end on a small
	// instance (labels get large — that is the point of DESIGN.md §3.4).
	g := workload.Complete(5)
	s := mustBuild(t, g, Params{
		MaxFaults: 2,
		Kind:      KindDetNetFind,
		Threshold: hierarchy.StrictTheoryThreshold,
	})
	exhaustiveCheck(t, g, s, 2)
}

// TestStressVsGroundTruth drives random graphs, fault mixes, and vertex
// pairs through all deterministic kinds plus the randomized RS kind.
func TestStressVsGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kinds := []Kind{KindDetNetFind, KindRandRS}
	for trial := 0; trial < 12; trial++ {
		n := 20 + rng.Intn(60)
		g := workload.ErdosRenyi(n, 0.08+rng.Float64()*0.1, trial%3 != 0, rng)
		f := 1 + rng.Intn(4)
		for _, kind := range kinds {
			s := mustBuild(t, g, Params{MaxFaults: f, Kind: kind, Seed: int64(trial)})
			forest := s.Forest
			for q := 0; q < 60; q++ {
				var faults []int
				switch q % 3 {
				case 0:
					faults = workload.RandomFaults(g, rng.Intn(f+1), rng)
				case 1:
					faults = workload.TreeEdgeFaults(g, forest, rng.Intn(f+1), rng)
				default:
					faults = workload.VertexCutFaults(g, f, rng)
				}
				sv, tv := rng.Intn(n), rng.Intn(n)
				want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
				sl, tl, fl := queryLabels(s, sv, tv, faults)
				got, err := Connected(sl, tl, fl)
				if err != nil {
					t.Fatalf("trial %d kind %v: %v", trial, kind, err)
				}
				if got != want {
					t.Fatalf("trial %d kind %v: Connected(%d,%d,%v) = %v, want %v",
						trial, kind, sv, tv, faults, got, want)
				}
			}
		}
	}
}

// TestAGMKind exercises the DP21 baseline: no wrong answers allowed, decode
// failures tolerated at a low rate (whp semantics).
func TestAGMKind(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	failures, queries := 0, 0
	for trial := 0; trial < 8; trial++ {
		n := 20 + rng.Intn(40)
		g := workload.ErdosRenyi(n, 0.12, true, rng)
		f := 1 + rng.Intn(3)
		s := mustBuild(t, g, Params{MaxFaults: f, Kind: KindAGM, Seed: int64(trial + 1)})
		for q := 0; q < 80; q++ {
			faults := workload.RandomFaults(g, rng.Intn(f+1), rng)
			sv, tv := rng.Intn(n), rng.Intn(n)
			want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
			sl, tl, fl := queryLabels(s, sv, tv, faults)
			got, err := Connected(sl, tl, fl)
			queries++
			if err != nil {
				if !errors.Is(err, ErrDecode) {
					t.Fatalf("unexpected error: %v", err)
				}
				failures++
				continue
			}
			if got != want {
				t.Fatalf("AGM wrong answer: Connected(%d,%d,%v) = %v, want %v", sv, tv, faults, got, want)
			}
		}
	}
	if failures*20 > queries {
		t.Fatalf("AGM failure rate too high: %d/%d", failures, queries)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	// Two components; faults in one must not affect the other, and
	// cross-component queries are false.
	g := graph.New(8)
	edges := [][2]int{{0, 1}, {1, 2}, {2, 0}, {4, 5}, {5, 6}, {6, 7}, {7, 4}}
	var ids []int
	for _, e := range edges {
		id, err := g.AddEdge(e[0], e[1])
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s := mustBuild(t, g, Params{MaxFaults: 2})
	sl, tl, fl := queryLabels(s, 0, 4, nil)
	if got, err := Connected(sl, tl, fl); err != nil || got {
		t.Fatalf("cross-component: got=%v err=%v", got, err)
	}
	// Vertex 3 is isolated.
	sl, tl, _ = queryLabels(s, 0, 3, nil)
	if got, err := Connected(sl, tl, nil); err != nil || got {
		t.Fatalf("isolated vertex: got=%v err=%v", got, err)
	}
	// Faults in component B don't affect component A.
	sl, tl, fl = queryLabels(s, 0, 2, []int{ids[4], ids[5]})
	if got, err := Connected(sl, tl, fl); err != nil || !got {
		t.Fatalf("faults elsewhere: got=%v err=%v", got, err)
	}
	// Within component B the faults do bite: remove 5-6 and 6-7 isolates 6.
	sl, tl, fl = queryLabels(s, 6, 4, []int{ids[4], ids[5]})
	if got, err := Connected(sl, tl, fl); err != nil || got {
		t.Fatalf("in-component faults: got=%v err=%v", got, err)
	}
}

func TestSelfQueryAndDuplicates(t *testing.T) {
	g := workload.Cycle(5)
	s := mustBuild(t, g, Params{MaxFaults: 2})
	sl, _, _ := queryLabels(s, 2, 2, nil)
	if got, err := Connected(sl, sl, nil); err != nil || !got {
		t.Fatalf("s == t: got=%v err=%v", got, err)
	}
	// The same fault label twice counts once.
	el := s.EdgeLabel(0)
	tl := s.VertexLabel(3)
	got, err := Connected(sl, tl, []EdgeLabel{el, el})
	if err != nil {
		t.Fatalf("duplicate faults: %v", err)
	}
	want := graph.ConnectedUnder(g, map[int]bool{0: true}, 2, 3)
	if got != want {
		t.Fatalf("duplicate faults: got %v, want %v", got, want)
	}
}

func TestTooManyFaults(t *testing.T) {
	g := workload.Complete(5)
	s := mustBuild(t, g, Params{MaxFaults: 1})
	sl, tl, fl := queryLabels(s, 0, 1, []int{2, 3})
	if _, err := Connected(sl, tl, fl); !errors.Is(err, ErrTooManyFaults) {
		t.Fatalf("err = %v, want ErrTooManyFaults", err)
	}
}

func TestLabelMixingRejected(t *testing.T) {
	g1 := workload.Cycle(6)
	g2 := workload.Cycle(7)
	s1 := mustBuild(t, g1, Params{MaxFaults: 1})
	s2 := mustBuild(t, g2, Params{MaxFaults: 1})
	if _, err := Connected(s1.VertexLabel(0), s2.VertexLabel(1), nil); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("cross-graph vertices: err = %v", err)
	}
	if _, err := Connected(s1.VertexLabel(0), s1.VertexLabel(1), []EdgeLabel{s2.EdgeLabel(0)}); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("cross-graph fault: err = %v", err)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := workload.ErdosRenyi(40, 0.15, true, rng)
	a := mustBuild(t, g, Params{MaxFaults: 2, Kind: KindDetNetFind})
	b := mustBuild(t, g, Params{MaxFaults: 2, Kind: KindDetNetFind})
	if a.Token() != b.Token() {
		t.Fatal("tokens differ across identical builds")
	}
	for e := 0; e < g.M(); e++ {
		ba := MarshalEdgeLabel(a.EdgeLabel(e))
		bb := MarshalEdgeLabel(b.EdgeLabel(e))
		if string(ba) != string(bb) {
			t.Fatalf("edge %d labels differ across identical builds", e)
		}
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	g := workload.ErdosRenyi(25, 0.2, true, rng)
	s := mustBuild(t, g, Params{MaxFaults: 2})
	for v := 0; v < g.N(); v++ {
		enc := MarshalVertexLabel(s.VertexLabel(v))
		dec, err := UnmarshalVertexLabel(enc)
		if err != nil {
			t.Fatalf("vertex %d: %v", v, err)
		}
		if dec != s.VertexLabel(v) {
			t.Fatalf("vertex %d round trip mismatch", v)
		}
	}
	for e := 0; e < g.M(); e++ {
		enc := MarshalEdgeLabel(s.EdgeLabel(e))
		dec, err := UnmarshalEdgeLabel(enc)
		if err != nil {
			t.Fatalf("edge %d: %v", e, err)
		}
		re := MarshalEdgeLabel(dec)
		if string(re) != string(enc) {
			t.Fatalf("edge %d round trip mismatch", e)
		}
	}
	// Queries through marshaled labels give the same answers.
	faults := []int{0, 1}
	sl, tl, fl := queryLabels(s, 0, g.N()-1, faults)
	want, err := Connected(sl, tl, fl)
	if err != nil {
		t.Fatal(err)
	}
	sl2, err := UnmarshalVertexLabel(MarshalVertexLabel(sl))
	if err != nil {
		t.Fatal(err)
	}
	var fl2 []EdgeLabel
	for _, l := range fl {
		d, err := UnmarshalEdgeLabel(MarshalEdgeLabel(l))
		if err != nil {
			t.Fatal(err)
		}
		fl2 = append(fl2, d)
	}
	got, err := Connected(sl2, tl, fl2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("marshaled labels changed the answer")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalVertexLabel(nil); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("nil vertex: %v", err)
	}
	if _, err := UnmarshalVertexLabel([]byte{0x56, 1, 2}); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("short vertex: %v", err)
	}
	if _, err := UnmarshalEdgeLabel([]byte{0x00}); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("bad magic: %v", err)
	}
	g := workload.Cycle(4)
	s, err := Build(g, Params{MaxFaults: 1})
	if err != nil {
		t.Fatal(err)
	}
	enc := MarshalEdgeLabel(s.EdgeLabel(0))
	if _, err := UnmarshalEdgeLabel(enc[:len(enc)-3]); !errors.Is(err, ErrBadLabel) {
		t.Fatalf("truncated edge: %v", err)
	}
}

func TestVertexLabelSizeIsSmall(t *testing.T) {
	// O(log n) bits per vertex: concretely a constant 21 bytes here.
	g := workload.Grid(8, 8)
	s := mustBuild(t, g, Params{MaxFaults: 3})
	if bits := VertexLabelBits; bits > 200 {
		t.Fatalf("vertex label is %d bits — should be tiny", bits)
	}
	if s.MaxEdgeLabelBits() <= 0 {
		t.Fatal("edge label size accounting broken")
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, Params{}); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := Build(workload.Cycle(3), Params{MaxFaults: -1}); err == nil {
		t.Fatal("negative fault budget accepted")
	}
	if _, err := Build(workload.Cycle(3), Params{Kind: Kind(99)}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestTreeOnlyGraph(t *testing.T) {
	// A tree has no non-tree edges: any tree-edge fault disconnects.
	g := graph.New(6)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {1, 3}, {3, 4}, {3, 5}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	s := mustBuild(t, g, Params{MaxFaults: 2})
	exhaustiveCheck(t, g, s, 2)
}

func TestZeroFaultBudget(t *testing.T) {
	g := workload.Cycle(5)
	s := mustBuild(t, g, Params{MaxFaults: 0})
	sl, tl, _ := queryLabels(s, 0, 3, nil)
	got, err := Connected(sl, tl, nil)
	if err != nil || !got {
		t.Fatalf("f=0 query: got=%v err=%v", got, err)
	}
}
