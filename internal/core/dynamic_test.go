package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/sketch"
	"repro/internal/workload"
)

// dynKinds are the scheme kinds under dynamic-update test. AGM runs with
// full-support repetitions so oracle comparisons cannot hit the whp
// failure mode.
func dynKinds(f int) map[string]Params {
	return map[string]Params{
		"det-netfind": {MaxFaults: f, Kind: KindDetNetFind},
		"det-greedy":  {MaxFaults: f, Kind: KindDetGreedy},
		"rand-rs":     {MaxFaults: f, Kind: KindRandRS, Seed: 11},
		"agm":         {MaxFaults: f, Kind: KindAGM, Seed: 11, AGMReps: 4 * f * 6},
	}
}

// pickAddable returns a random absent edge whose endpoints share a
// spanning-forest component (an incremental-eligible insertion), or ok =
// false if none is found.
func pickAddable(g *graph.Graph, forest *graph.Forest, rng *rand.Rand) (int, int, bool) {
	for try := 0; try < 200; try++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u == v || g.HasEdge(u, v) || forest.Comp[u] != forest.Comp[v] {
			continue
		}
		return u, v, true
	}
	return 0, 0, false
}

// pickRemovable returns a random non-tree edge, or ok = false.
func pickRemovable(g *graph.Graph, forest *graph.Forest, rng *rand.Rand) (int, int, bool) {
	for try := 0; try < 200; try++ {
		e := rng.Intn(g.M())
		if forest.IsTreeEdge[e] {
			continue
		}
		return g.Edges[e].U, g.Edges[e].V, true
	}
	return 0, 0, false
}

// verifyAgainstOracle cross-checks the scheme against the BFS oracle and
// against a from-scratch build of the same graph over seeded fault sets.
func verifyAgainstOracle(t *testing.T, s *Scheme, fresh *Scheme, rng *rand.Rand, f, trials int) {
	t.Helper()
	g := s.Graph()
	for trial := 0; trial < trials; trial++ {
		var faults []int
		switch trial % 3 {
		case 0:
			faults = workload.TreeEdgeFaults(g, s.Forest, 1+rng.Intn(f), rng)
		case 1:
			faults = workload.RandomFaults(g, 1+rng.Intn(f), rng)
		default:
			faults = workload.VertexCutFaults(g, f, rng)
		}
		fl := make([]EdgeLabel, len(faults))
		freshFl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
			freshFl[i] = fresh.EdgeLabel(e)
		}
		fs, err := CompileFaults(fl)
		if err != nil {
			t.Fatalf("trial %d: compile %v: %v", trial, faults, err)
		}
		for q := 0; q < 12; q++ {
			sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
			want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
			got, err := fs.Connected(s.VertexLabel(sv), s.VertexLabel(tv))
			if err != nil {
				t.Fatalf("trial %d (%d,%d|%v): %v", trial, sv, tv, faults, err)
			}
			if got != want {
				t.Fatalf("trial %d (%d,%d|%v): dynamic says %v, oracle says %v",
					trial, sv, tv, faults, got, want)
			}
			freshGot, err := Connected(fresh.VertexLabel(sv), fresh.VertexLabel(tv), freshFl)
			if err != nil {
				t.Fatalf("trial %d: fresh build: %v", trial, err)
			}
			if freshGot != want {
				t.Fatalf("trial %d: fresh build disagrees with oracle", trial)
			}
		}
	}
}

// TestDynamicUpdatesMatchOracle drives every scheme kind through a mixed
// insert/delete sequence — incremental commits and rebuild fallbacks — and
// checks each committed generation against the BFS oracle and a
// from-scratch build.
func TestDynamicUpdatesMatchOracle(t *testing.T) {
	const f = 3
	for name, p := range dynKinds(f) {
		t.Run(name, func(t *testing.T) {
			n := 90
			if p.Kind == KindDetGreedy {
				n = 36
			}
			rng := rand.New(rand.NewSource(int64(len(name))))
			g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
			d, err := NewDynamic(g.Clone(), p)
			if err != nil {
				t.Fatalf("NewDynamic: %v", err)
			}
			sawIncremental, sawRebuild := false, false
			for step := 0; step < 12; step++ {
				var batch []Update
				for len(batch) < 1+rng.Intn(3) {
					cur := d.Scheme()
					if rng.Intn(2) == 0 {
						if u, v, ok := pickAddable(cur.Graph(), cur.Forest, rng); ok {
							batch = append(batch, Update{Add: true, U: u, V: v})
							continue
						}
					}
					if u, v, ok := pickRemovable(cur.Graph(), cur.Forest, rng); ok {
						batch = append(batch, Update{U: u, V: v})
						continue
					}
					break
				}
				if len(batch) == 0 {
					continue
				}
				// Drop batch-internal duplicates (the staged API's job).
				seen := map[graph.Edge]bool{}
				uniq := batch[:0]
				for _, op := range batch {
					u, v := op.U, op.V
					if u > v {
						u, v = v, u
					}
					if seen[graph.Edge{U: u, V: v}] {
						continue
					}
					seen[graph.Edge{U: u, V: v}] = true
					uniq = append(uniq, op)
				}
				rep, _, s, err := d.Commit(uniq)
				if err != nil {
					t.Fatalf("step %d: commit %v: %v", step, uniq, err)
				}
				if rep.Incremental {
					sawIncremental = true
				} else {
					sawRebuild = true
				}
				if s.Generation() != d.Generation() || rep.Gen != s.Generation() {
					t.Fatalf("step %d: generation bookkeeping diverged", step)
				}
				fresh, err := Build(s.Graph().Clone(), p)
				if err != nil {
					t.Fatalf("step %d: fresh build: %v", step, err)
				}
				verifyAgainstOracle(t, s, fresh, rng, f, 10)
			}
			if !sawIncremental {
				t.Error("update sequence never exercised the incremental path")
			}
			_ = sawRebuild // rebuilds depend on the random walk; incremental coverage is what matters
		})
	}
}

// definitionalPayloads recomputes every edge payload of s from its labels
// alone. Each non-tree edge e = (u < v) — one whose label's child is
// neither endpoint's ancestry label — with label L_e contributes the row of
// edgeID(L_e.Child.Pre, anc(v).Pre) to every label whose child subtree
// holds exactly one of L_e.Child and anc(v): its odd power sums (a gf.Mul
// chain) at each hierarchy level that holds e, or its AGM unit block.
func definitionalPayloads(s *Scheme) [][]uint64 {
	spec, g := s.Spec(), s.Graph()
	agm := sketch.Spec{Reps: spec.Reps, Buckets: spec.Buckets, Seed: spec.Seed}
	want := make([][]uint64, g.M())
	for x := range want {
		want[x] = make([]uint64, spec.Words())
	}
	for e, ed := range g.Edges {
		le, ancU, ancV := s.EdgeLabel(e), s.VertexLabel(ed.U).Anc, s.VertexLabel(ed.V).Anc
		if le.Child == ancU || le.Child == ancV {
			continue
		}
		id := edgeID(le.Child.Pre, ancV.Pre)
		contrib := make([]uint64, spec.Words())
		if spec.Kind == KindAGM {
			agm.AddEdge(contrib, id)
		} else {
			full := make([]uint64, 2*spec.K)
			addAllPowers(full, id)
			for lvl, level := range s.Hierarchy.Levels {
				if slices.Contains(level, e) {
					for j := 0; j < spec.K; j++ {
						contrib[lvl*spec.K+j] = full[2*j]
					}
				}
			}
		}
		for x := range want {
			c := s.EdgeLabel(x).Child
			if c.IsAncestorOf(le.Child) != c.IsAncestorOf(ancV) {
				for w := range contrib {
					want[x][w] ^= contrib[w]
				}
			}
		}
	}
	return want
}

// TestIncrementalLabelsMatchDefinition checks every edge payload of every
// generation against definitionalPayloads, over at least six incremental
// generations per kind with inserts, deletes, and an insert-then-delete of
// one edge inside a batch. It shares no code with the commit path, so it
// checks the delta's mask arithmetic on its own — which the replay tests,
// comparing primary and replica through one replay, cannot.
func TestIncrementalLabelsMatchDefinition(t *testing.T) {
	kinds := dynKinds(3)
	for _, name := range []string{"det-netfind", "rand-rs", "agm"} {
		p := kinds[name]
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			d, err := NewDynamic(workload.ErdosRenyi(64, 6/64.0, true, rng), p)
			if err != nil {
				t.Fatal(err)
			}
			incremental := 0
			for step := 0; incremental < 6; step++ {
				if step == 20 {
					t.Fatalf("only %d incremental generations in %d commits", incremental, step)
				}
				batch := driftBatch(d.Scheme(), rng)
				if step%2 == 1 {
					// Insert and delete one more edge inside the batch.
					cur := d.Scheme()
					u, v, ok := pickAddable(cur.Graph(), cur.Forest, rng)
					staged := slices.ContainsFunc(batch, func(op Update) bool {
						return min(op.U, op.V) == min(u, v) && max(op.U, op.V) == max(u, v)
					})
					if ok && !staged {
						batch = append(batch, Update{Add: true, U: u, V: v}, Update{U: v, V: u})
					}
				}
				rep, _, s, err := d.Commit(batch)
				if err != nil {
					t.Fatalf("step %d: commit %v: %v", step, batch, err)
				}
				if rep.Incremental {
					incremental++
				}
				for x, want := range definitionalPayloads(s) {
					if got := s.EdgeLabel(x).Out; !slices.Equal(got, want) {
						t.Fatalf("generation %d (step %d, incremental %v): edge %d payload differs from the definition",
							s.Generation(), step, rep.Incremental, x)
					}
				}
			}
		})
	}
}

// stripStamp zeroes the token/generation stamp of an edge label copy so
// that byte comparisons isolate label *content*.
func stripStamp(l EdgeLabel) EdgeLabel {
	l.Token, l.Gen = 0, 0
	return l
}

// TestDynamicCleanLabelsByteStable asserts the incremental contract the
// serving cache relies on: labels outside CommitReport.Relabeled are
// byte-identical across the commit modulo the token/generation restamp.
func TestDynamicCleanLabelsByteStable(t *testing.T) {
	const f = 3
	rng := rand.New(rand.NewSource(41))
	g := workload.ErdosRenyi(120, 8/120.0, true, rng)
	d, err := NewDynamic(g.Clone(), Params{MaxFaults: f, Kind: KindDetNetFind})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 8; step++ {
		before := d.Scheme()
		beforeBytes := make([][]byte, before.Graph().M())
		for e := range beforeBytes {
			beforeBytes[e] = MarshalEdgeLabel(stripStamp(before.EdgeLabel(e)))
		}
		var op Update
		if step%2 == 0 {
			u, v, ok := pickAddable(before.Graph(), before.Forest, rng)
			if !ok {
				t.Fatalf("step %d: no addable edge", step)
			}
			op = Update{Add: true, U: u, V: v}
		} else {
			u, v, ok := pickRemovable(before.Graph(), before.Forest, rng)
			if !ok {
				t.Fatalf("step %d: no removable edge", step)
			}
			op = Update{U: u, V: v}
		}
		rep, _, after, err := d.Commit([]Update{op})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !rep.Incremental {
			t.Fatalf("step %d: expected incremental commit, got rebuild (%s)", step, rep.Reason)
		}
		relabeled := map[int]bool{}
		for _, e := range rep.Relabeled {
			relabeled[e] = true
		}
		for pre := range beforeBytes {
			post := pre
			if rep.Remap != nil {
				post = rep.Remap[pre]
			}
			if post < 0 {
				continue // removed
			}
			got := MarshalEdgeLabel(stripStamp(after.EdgeLabel(post)))
			if relabeled[post] {
				if bytes.Equal(got, beforeBytes[pre]) {
					t.Errorf("step %d: edge %d reported relabeled but is byte-identical", step, post)
				}
				continue
			}
			if !bytes.Equal(got, beforeBytes[pre]) {
				t.Fatalf("step %d: clean edge %d changed bytes across an incremental commit", step, post)
			}
		}
		// Vertex ancestry must never move under an incremental commit.
		for v := 0; v < after.N(); v++ {
			if before.VertexLabel(v).Anc != after.VertexLabel(v).Anc {
				t.Fatalf("step %d: vertex %d ancestry moved", step, v)
			}
		}
	}
}

// TestDynamicMergeMatchesFreshBuild is the component-merge acceptance test:
// AddEdge joining two previously disconnected components must produce
// labels byte-identical to a from-scratch build of the mutated graph at the
// same generation, for all four scheme kinds.
func TestDynamicMergeMatchesFreshBuild(t *testing.T) {
	const f = 2
	for name, p := range dynKinds(f) {
		t.Run(name, func(t *testing.T) {
			// Two components: a Petersen graph and a 6-cycle, plus an
			// isolated vertex.
			g := graph.New(17)
			for _, e := range workload.Petersen().Edges {
				if _, err := g.AddEdge(e.U, e.V); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				if _, err := g.AddEdge(10+i, 10+(i+1)%6); err != nil {
					t.Fatal(err)
				}
			}
			d, err := NewDynamic(g.Clone(), p)
			if err != nil {
				t.Fatal(err)
			}
			rep, _, s, err := d.Commit([]Update{
				{Add: true, U: 3, V: 12}, // Petersen ↔ cycle
				{Add: true, U: 16, V: 0}, // isolated vertex ↔ Petersen
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Incremental {
				t.Fatal("component merge must fall back to a full rebuild")
			}
			fresh, err := buildWith(s.Graph().Clone(), d.params, rep.Gen)
			if err != nil {
				t.Fatal(err)
			}
			if fresh.Token() != s.Token() {
				t.Fatalf("token differs from fresh build: %x vs %x", s.Token(), fresh.Token())
			}
			for v := 0; v < s.N(); v++ {
				if !bytes.Equal(MarshalVertexLabel(s.VertexLabel(v)), MarshalVertexLabel(fresh.VertexLabel(v))) {
					t.Fatalf("vertex %d label differs from fresh build", v)
				}
			}
			for e := 0; e < s.Graph().M(); e++ {
				if !bytes.Equal(MarshalEdgeLabel(s.EdgeLabel(e)), MarshalEdgeLabel(fresh.EdgeLabel(e))) {
					t.Fatalf("edge %d label differs from fresh build", e)
				}
			}
			// And the merged graph answers correctly.
			rng := rand.New(rand.NewSource(7))
			verifyAgainstOracle(t, s, fresh, rng, f, 20)
		})
	}
}

// TestDynamicStaleLabelDetection asserts that mixing labels across
// generations fails fast with ErrStaleLabel (which still matches
// ErrLabelMismatch for old callers).
func TestDynamicStaleLabelDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	d, err := NewDynamic(g.Clone(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	old := d.Scheme()
	u, v, ok := pickAddable(old.Graph(), old.Forest, rng)
	if !ok {
		t.Fatal("no addable edge")
	}
	_, _, cur, err := d.Commit([]Update{{Add: true, U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if cur.Generation() != 2 || old.Generation() != 1 {
		t.Fatalf("generations: old %d, cur %d", old.Generation(), cur.Generation())
	}
	// Vertex labels from different generations.
	if _, err := Connected(old.VertexLabel(0), cur.VertexLabel(1), nil); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("mixed vertex generations: got %v, want ErrStaleLabel", err)
	}
	// Fault label from the old generation against current vertices.
	fl := []EdgeLabel{old.EdgeLabel(0)}
	if _, err := Connected(cur.VertexLabel(0), cur.VertexLabel(1), fl); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("stale fault label: got %v, want ErrStaleLabel", err)
	}
	if !errors.Is(ErrStaleLabel, ErrLabelMismatch) {
		t.Fatal("ErrStaleLabel must wrap ErrLabelMismatch")
	}
	// Fault sets compiled at the old generation reject current vertices.
	fs, err := CompileFaults(fl)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Connected(cur.VertexLabel(0), cur.VertexLabel(1)); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("stale fault set: got %v, want ErrStaleLabel", err)
	}
	// Mixing faults from two generations inside one compile fails too.
	if _, err := CompileFaults([]EdgeLabel{old.EdgeLabel(0), cur.EdgeLabel(1)}); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("mixed-generation compile: got %v, want ErrStaleLabel", err)
	}
	// Rebase repairs a clean fault set for the new generation.
	rebased := fs.Rebase(cur.Token(), cur.Generation())
	if _, err := rebased.Connected(cur.VertexLabel(0), cur.VertexLabel(1)); err != nil {
		t.Fatalf("rebased fault set: %v", err)
	}
	// Two separately-opened identical networks produce identical labels, so
	// their tokens agree and labels interoperate.
	d2, err := NewDynamic(g.Clone(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Scheme().Token() != old.Token() {
		t.Fatal("identical histories should produce identical tokens")
	}
}

// TestDynamicFallbackTriggers exercises each rebuild trigger.
func TestDynamicFallbackTriggers(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	p := Params{MaxFaults: 2, AuxSlack: 1}

	t.Run("tree-edge-removal", func(t *testing.T) {
		d, err := NewDynamic(g.Clone(), p)
		if err != nil {
			t.Fatal(err)
		}
		forest := d.Scheme().Forest
		var u, v int
		for e, tree := range forest.IsTreeEdge {
			if tree {
				u, v = g.Edges[e].U, g.Edges[e].V
				break
			}
		}
		rep, _, s, err := d.Commit([]Update{{U: u, V: v}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Incremental {
			t.Fatal("tree-edge removal must rebuild")
		}
		if s.Graph().HasEdge(u, v) {
			t.Fatal("edge not removed")
		}
		if rep.Remap == nil || len(rep.Removed) != 1 {
			t.Fatalf("remap/removed not reported: %+v", rep)
		}
	})

	t.Run("add-then-remove-demoted-edge", func(t *testing.T) {
		// Regression: an add that demotes the plan to a rebuild (here a
		// component merge) followed by a remove of that same edge in one
		// batch used to panic in classify (EdgeIndex -1).
		g2 := graph.New(4)
		for _, e := range [][2]int{{0, 1}, {2, 3}} {
			if _, err := g2.AddEdge(e[0], e[1]); err != nil {
				t.Fatal(err)
			}
		}
		d, err := NewDynamic(g2, p)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, s, err := d.Commit([]Update{{Add: true, U: 1, V: 2}, {U: 1, V: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Incremental {
			t.Fatal("merge-add batch must rebuild")
		}
		if s.Graph().HasEdge(1, 2) {
			t.Fatal("edge added then removed in one batch survived")
		}
	})

	t.Run("slot-exhaustion", func(t *testing.T) {
		d, err := NewDynamic(g.Clone(), p) // AuxSlack 1: second add at a vertex overflows
		if err != nil {
			t.Fatal(err)
		}
		// Find a vertex with two addable partners in its component.
		cur := d.Scheme()
		var w, a, b int
		found := false
		for w = 0; w < g.N() && !found; w++ {
			var cands []int
			for x := 0; x < g.N(); x++ {
				if x > w && !cur.Graph().HasEdge(w, x) && cur.Forest.Comp[w] == cur.Forest.Comp[x] {
					cands = append(cands, x)
				}
			}
			if len(cands) >= 2 {
				a, b = cands[0], cands[1]
				found = true
				break
			}
		}
		if !found {
			t.Skip("no vertex with two addable partners")
		}
		rep1, _, _, err := d.Commit([]Update{{Add: true, U: w, V: a}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep1.Incremental {
			t.Fatalf("first add should be incremental, got rebuild (%s)", rep1.Reason)
		}
		rep2, _, _, err := d.Commit([]Update{{Add: true, U: w, V: b}})
		if err != nil {
			t.Fatal(err)
		}
		if rep2.Incremental {
			t.Fatal("second add at a slack-1 vertex must rebuild")
		}
	})

	t.Run("churn-budget", func(t *testing.T) {
		d, err := NewDynamic(g.Clone(), Params{MaxFaults: 2, AuxSlack: 64})
		if err != nil {
			t.Fatal(err)
		}
		sawRebuild := false
		for i := 0; i < 200 && !sawRebuild; i++ {
			cur := d.Scheme()
			u, v, ok := pickAddable(cur.Graph(), cur.Forest, rng)
			if !ok {
				break
			}
			rep, _, _, err := d.Commit([]Update{{Add: true, U: u, V: v}})
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Incremental {
				sawRebuild = true
				if d.Churn() != 0 {
					t.Fatal("rebuild must reset churn")
				}
			}
		}
		if !sawRebuild {
			t.Fatal("sustained churn never triggered the hierarchy invalidation rebuild")
		}
	})
}
