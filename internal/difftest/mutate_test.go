package difftest

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// mutateKind is one scheme kind under mutate-then-verify test.
// wantErrFree mirrors the static sweep: every kind but the whp AGM
// baseline must answer without a single detected error.
type mutateKind struct {
	name        string
	maxN        int
	wantErrFree bool
	opts        func(f int) []ftc.Option
}

var mutateKinds = []mutateKind{
	{"det-netfind", 100, true, func(f int) []ftc.Option {
		return []ftc.Option{ftc.WithMaxFaults(f), ftc.WithDeterministic()}
	}},
	{"det-greedy", 36, true, func(f int) []ftc.Option {
		return []ftc.Option{ftc.WithMaxFaults(f), ftc.WithGreedyNet()}
	}},
	{"rand-rs", 100, true, func(f int) []ftc.Option {
		return []ftc.Option{ftc.WithMaxFaults(f), ftc.WithRandomized(29)}
	}},
	{"agm-full", 100, false, func(f int) []ftc.Option {
		return []ftc.Option{ftc.WithMaxFaults(f), ftc.WithAGM(29), ftc.WithAGMReps(4 * f * 6)}
	}},
}

// stripStamp zeroes the per-generation stamp so byte comparisons isolate
// label content.
func stripStamp(l ftc.EdgeLabel) ftc.EdgeLabel {
	l.Token, l.Gen = 0, 0
	return l
}

// TestMutateThenVerify is the dynamic-network differential sweep: for every
// scheme kind × workload family it opens a Network, drives a seeded random
// sequence of insert/delete batches through Commit, and checks every
// committed generation three ways:
//
//  1. probes answer exactly like the BFS oracle on the mutated graph,
//  2. a from-scratch ftc.New on the same graph answers identically, and
//  3. labels of clean edges (outside CommitReport.Relabeled) are
//     byte-identical across an incremental commit modulo the
//     token/generation restamp — the invariant the serving layer's
//     selective cache invalidation is built on.
func TestMutateThenVerify(t *testing.T) {
	const (
		f             = 3
		commits       = 8
		faultsPerGen  = 12
		queriesPerSet = 10
	)
	for _, kc := range mutateKinds {
		for _, fam := range families {
			t.Run(kc.name+"/"+fam.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(len(fam.name)*31 + kc.maxN)))
				g := fam.gen(kc.maxN, rng)
				edges := make([][2]int, g.M())
				for i, e := range g.Edges {
					edges[i] = [2]int{e.U, e.V}
				}
				nw, err := ftc.Open(g.N(), edges, kc.opts(f)...)
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				sawIncremental := false
				for c := 0; c < commits; c++ {
					snap := nw.Snapshot()
					before := make([][]byte, snap.M())
					for e := range before {
						before[e] = ftc.MarshalEdgeLabel(stripStamp(snap.EdgeLabelByIndex(e)))
					}
					staged := stageRandomBatch(t, nw, rng)
					if staged == 0 {
						continue
					}
					rep, err := nw.Commit()
					if err != nil {
						t.Fatalf("commit %d: %v", c, err)
					}
					cur := nw.Snapshot()
					if rep.Incremental {
						sawIncremental = true
						verifyCleanLabels(t, before, cur, rep)
					}
					verifyGeneration(t, cur, kc.opts(f), kc.wantErrFree, rng, f, faultsPerGen, queriesPerSet)
				}
				if !sawIncremental {
					t.Error("mutation sequence never exercised the incremental path")
				}
			})
		}
	}
}

// stageRandomBatch stages a small random batch of valid insertions and
// deletions; returns how many mutations were staged.
func stageRandomBatch(t *testing.T, nw *ftc.Network, rng *rand.Rand) int {
	t.Helper()
	g := nw.Snapshot().Graph()
	n := g.N()
	staged := 0
	for want := 1 + rng.Intn(3); staged < want; {
		if rng.Intn(2) == 0 { // insert
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v || g.HasEdge(u, v) {
				continue
			}
			if err := nw.AddEdge(u, v); err != nil {
				continue // already staged this pair
			}
		} else { // delete
			e := rng.Intn(g.M())
			if err := nw.RemoveEdge(g.Edges[e].U, g.Edges[e].V); err != nil {
				continue
			}
		}
		staged++
	}
	return staged
}

// verifyCleanLabels checks clean-edge byte stability across one
// incremental commit.
func verifyCleanLabels(t *testing.T, before [][]byte, cur *ftc.Scheme, rep *ftc.CommitReport) {
	t.Helper()
	relabeled := map[int]bool{}
	for _, e := range rep.Relabeled {
		relabeled[e] = true
	}
	for pre := range before {
		post := pre
		if rep.Remap != nil {
			post = rep.Remap[pre]
		}
		if post < 0 || relabeled[post] {
			continue
		}
		got := ftc.MarshalEdgeLabel(stripStamp(cur.EdgeLabelByIndex(post)))
		if !bytes.Equal(got, before[pre]) {
			t.Fatalf("gen %d: clean edge %d (pre %d) changed bytes across an incremental commit",
				rep.Gen, post, pre)
		}
	}
}

// verifyGeneration checks one committed generation against the BFS oracle
// and a from-scratch build. Detected decode errors are tolerated (rarely)
// only when wantErrFree is false — the whp AGM baseline — and never count
// as agreement.
func verifyGeneration(t *testing.T, cur *ftc.Scheme, opts []ftc.Option, wantErrFree bool, rng *rand.Rand, f, faultSets, queries int) {
	t.Helper()
	decodeErrs := 0
	g := cur.Graph()
	edges := make([][2]int, g.M())
	for i, e := range g.Edges {
		edges[i] = [2]int{e.U, e.V}
	}
	fresh, err := ftc.New(g.N(), edges, opts...)
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	for trial := 0; trial < faultSets; trial++ {
		var faults []int
		switch trial % 3 {
		case 0:
			faults = workload.TreeEdgeFaults(g, cur.Inner().Forest, 1+rng.Intn(f), rng)
		case 1:
			faults = workload.RandomFaults(g, 1+rng.Intn(f), rng)
		default:
			faults = workload.VertexCutFaults(g, f, rng)
		}
		fl := make([]ftc.EdgeLabel, len(faults))
		freshFl := make([]ftc.EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = cur.EdgeLabelByIndex(e)
			freshFl[i] = fresh.EdgeLabelByIndex(e)
		}
		fs, err := ftc.NewFaultSet(fl)
		if err != nil {
			t.Fatalf("trial %d: compile: %v", trial, err)
		}
		set := workload.FaultSet(faults)
		for q := 0; q < queries; q++ {
			sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
			want := graph.ConnectedUnder(g, set, sv, tv)
			got, err := fs.Connected(cur.VertexLabel(sv), cur.VertexLabel(tv))
			if err != nil {
				if wantErrFree || !errors.Is(err, ftc.ErrDecode) {
					t.Fatalf("trial %d (%d,%d|%v): %v", trial, sv, tv, faults, err)
				}
				decodeErrs++
				continue
			}
			if got != want {
				t.Fatalf("trial %d (%d,%d|%v): network says %v, oracle says %v",
					trial, sv, tv, faults, got, want)
			}
			freshGot, err := ftc.Connected(fresh.VertexLabel(sv), fresh.VertexLabel(tv), freshFl)
			if err != nil {
				if wantErrFree || !errors.Is(err, ftc.ErrDecode) {
					t.Fatalf("trial %d: fresh probe: %v", trial, err)
				}
				decodeErrs++
				continue
			}
			if freshGot != want {
				t.Fatalf("trial %d: fresh build diverges from oracle", trial)
			}
		}
	}
	if decodeErrs > faultSets*queries/10 {
		t.Fatalf("%d detected decode errors across %d probes", decodeErrs, faultSets*queries)
	}
}
