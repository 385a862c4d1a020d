package core

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// schemesByteIdentical asserts every label of got marshals to the same
// bytes as the corresponding label of want.
func schemesByteIdentical(t *testing.T, want, got *Scheme) {
	t.Helper()
	if got.Token() != want.Token() || got.Generation() != want.Generation() {
		t.Fatalf("token/gen: got (%#x, %d), want (%#x, %d)",
			got.Token(), got.Generation(), want.Token(), want.Generation())
	}
	if got.N() != want.N() || got.Graph().M() != want.Graph().M() {
		t.Fatalf("shape: got (%d, %d), want (%d, %d)",
			got.N(), got.Graph().M(), want.N(), want.Graph().M())
	}
	for v := 0; v < want.N(); v++ {
		if !bytes.Equal(MarshalVertexLabel(got.VertexLabel(v)), MarshalVertexLabel(want.VertexLabel(v))) {
			t.Fatalf("vertex %d label bytes diverge", v)
		}
	}
	for e := 0; e < want.Graph().M(); e++ {
		if !bytes.Equal(MarshalEdgeLabel(got.EdgeLabel(e)), MarshalEdgeLabel(want.EdgeLabel(e))) {
			t.Fatalf("edge %d label bytes diverge", e)
		}
	}
}

// driftBatch picks a small incremental-eligible batch (non-merging adds,
// non-tree removes) against the current scheme.
func driftBatch(s *Scheme, rng *rand.Rand) []Update {
	var batch []Update
	staged := map[[2]int]bool{}
	for len(batch) < 3 {
		if rng.Intn(2) == 0 {
			u, v, ok := pickAddable(s.Graph(), s.Forest, rng)
			if !ok || staged[[2]int{u, v}] || staged[[2]int{v, u}] {
				break
			}
			staged[[2]int{u, v}] = true
			batch = append(batch, Update{Add: true, U: u, V: v})
		} else {
			u, v, ok := pickRemovable(s.Graph(), s.Forest, rng)
			if !ok || staged[[2]int{u, v}] || staged[[2]int{v, u}] {
				break
			}
			staged[[2]int{u, v}] = true
			batch = append(batch, Update{U: u, V: v})
		}
	}
	return batch
}

// TestDeltaReplayByteIdentical drives a Dynamic through a run of
// incremental commits per scheme kind and checks, at every generation, that
// replaying the exported delta on the replica's copy reproduces the
// primary's labels byte for byte — both on a directly-shared scheme and on
// one that went through a v3 snapshot round trip (the replica boot path,
// exercising lazy-arena materialization).
func TestDeltaReplayByteIdentical(t *testing.T) {
	for name, p := range dynKinds(3) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g := workload.ErdosRenyi(90, 8/90.0, true, rng)
			d, err := NewDynamic(g.Clone(), p)
			if err != nil {
				t.Fatalf("NewDynamic: %v", err)
			}
			replica := d.Scheme()
			blob, err := d.Scheme().MarshalBinary()
			if err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			lazyReplica, err := UnmarshalScheme(blob)
			if err != nil {
				t.Fatalf("load snapshot: %v", err)
			}
			steps := 0
			for gen := uint64(2); steps < 6; gen++ {
				batch := driftBatch(d.Scheme(), rng)
				if len(batch) == 0 {
					break
				}
				rep, delta, s, err := d.Commit(batch)
				if err != nil {
					t.Fatalf("gen %d: commit: %v", gen, err)
				}
				if !rep.Incremental {
					// Rare under driftBatch (slot exhaustion); a full
					// rebuild ends the incremental run.
					if delta == nil || !delta.Full {
						t.Fatalf("gen %d: rebuild commit must export a Full marker", gen)
					}
					break
				}
				if delta == nil {
					t.Fatalf("gen %d: incremental commit exported no delta", gen)
				}
				repGot, next, err := ApplyDelta(replica, delta)
				if err != nil {
					t.Fatalf("gen %d: ApplyDelta: %v", gen, err)
				}
				if repGot.Gen != rep.Gen || repGot.Token != rep.Token {
					t.Fatalf("gen %d: replayed report (%d, %#x) != primary (%d, %#x)",
						gen, repGot.Gen, repGot.Token, rep.Gen, rep.Token)
				}
				replica = next
				schemesByteIdentical(t, s, replica)

				_, lazyNext, err := ApplyDelta(lazyReplica, delta)
				if err != nil {
					t.Fatalf("gen %d: ApplyDelta on snapshot-loaded scheme: %v", gen, err)
				}
				lazyReplica = lazyNext
				schemesByteIdentical(t, s, lazyReplica)
				steps++
			}
			if steps < 3 {
				t.Fatalf("only %d incremental generations exercised", steps)
			}
		})
	}
}

// sameForest requires got to be the spanning forest want is: equal parent
// vertices, parent edge indices and tree-edge flags.
func sameForest(t *testing.T, want, got *graph.Forest) {
	t.Helper()
	if !slices.Equal(got.Parent, want.Parent) {
		t.Fatalf("Parent %v, want %v", got.Parent, want.Parent)
	}
	if !slices.Equal(got.ParentEdge, want.ParentEdge) {
		t.Fatalf("ParentEdge %v, want %v", got.ParentEdge, want.ParentEdge)
	}
	if !slices.Equal(got.IsTreeEdge, want.IsTreeEdge) {
		t.Fatalf("IsTreeEdge %v, want %v", got.IsTreeEdge, want.IsTreeEdge)
	}
}

// TestDeltaReplayCarriesForest checks that ApplyDelta's scheme carries the
// primary's spanning forest — the tree its labels encode — through
// incremental inserts and deletes. On the path 0–1–2–3–4 with chord (0,2),
// inserting (0,4) keeps vertex 4 under 3, where a BFS of the new graph
// hangs it under 0; the later batches delete below tree edges (shifting
// ParentEdge) and insert then delete one edge inside a batch. The previous
// generation's forest and hierarchy must come through both replays
// unedited.
func TestDeltaReplayCarriesForest(t *testing.T) {
	g := graph.New(5)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 2}} {
		if _, err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	batches := [][]Update{
		{{Add: true, U: 0, V: 4}},
		{{U: 1, V: 2}, {Add: true, U: 1, V: 3}},
		{{Add: true, U: 2, V: 4}, {U: 4, V: 2}, {U: 0, V: 4}},
	}
	d, err := NewDynamic(g, Params{MaxFaults: 2})
	if err != nil {
		t.Fatal(err)
	}
	replica := d.Scheme()
	for i, batch := range batches {
		prev := *replica.Forest
		prev.ParentEdge = slices.Clone(prev.ParentEdge)
		prev.IsTreeEdge = slices.Clone(prev.IsTreeEdge)
		prevLevels := make([][]int, len(replica.Hierarchy.Levels))
		for lvl, level := range replica.Hierarchy.Levels {
			prevLevels[lvl] = slices.Clone(level)
		}
		rep, delta, s, err := d.Commit(batch)
		if err != nil || !rep.Incremental {
			t.Fatalf("batch %d: rep %+v, err %v", i, rep, err)
		}
		_, next, err := ApplyDelta(replica, delta)
		if err != nil {
			t.Fatalf("batch %d: ApplyDelta: %v", i, err)
		}
		sameForest(t, s.Forest, next.Forest)
		sameForest(t, &prev, replica.Forest)
		for lvl, level := range replica.Hierarchy.Levels {
			if !slices.Equal(level, prevLevels[lvl]) {
				t.Fatalf("batch %d: the previous generation's hierarchy level %d changed", i, lvl)
			}
		}
		replica = next
		if i == 0 && replica.Forest.Parent[4] != 3 {
			t.Fatalf("after inserting (0,4): Parent[4] = %d, want 3", replica.Forest.Parent[4])
		}
	}

	// The same over random incremental batches on an ER graph.
	rng := rand.New(rand.NewSource(23))
	d, err = NewDynamic(workload.ErdosRenyi(60, 0.1, true, rng), Params{MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	replica = d.Scheme()
	for step := 0; step < 6; step++ {
		rep, delta, s, err := d.Commit(driftBatch(d.Scheme(), rng))
		if err != nil || !rep.Incremental {
			t.Fatalf("step %d: rep %+v, err %v", step, rep, err)
		}
		_, next, err := ApplyDelta(replica, delta)
		if err != nil {
			t.Fatalf("step %d: ApplyDelta: %v", step, err)
		}
		sameForest(t, s.Forest, next.Forest)
		replica = next
	}
}

// TestDeltaFullRebuildMarker asserts a forest-breaking commit exports a
// Full marker and ApplyDelta refuses it with ErrFullRebuild.
func TestDeltaFullRebuildMarker(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.ErdosRenyi(40, 0.12, true, rng)
	d, err := NewDynamic(g.Clone(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	replica := d.Scheme()
	// Deleting a tree edge breaks the spanning forest: rebuild path.
	var batch []Update
	for e := 0; e < g.M(); e++ {
		if d.Scheme().Forest.IsTreeEdge[e] {
			batch = []Update{{U: g.Edges[e].U, V: g.Edges[e].V}}
			break
		}
	}
	rep, delta, _, err := d.Commit(batch)
	if err != nil {
		t.Fatalf("commit: %v", err)
	}
	if rep.Incremental {
		t.Fatal("tree-edge deletion committed incrementally")
	}
	if delta == nil || !delta.Full || delta.Reason == "" {
		t.Fatalf("want Full marker with reason, got %+v", delta)
	}
	if _, _, err := ApplyDelta(replica, delta); !errors.Is(err, ErrFullRebuild) {
		t.Fatalf("ApplyDelta(full marker) = %v, want ErrFullRebuild", err)
	}
}

// TestDeltaGapAndMismatch exercises the refusal paths: a delta applied out
// of order, and a delta whose replayed state cannot match its token.
func TestDeltaGapAndMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := workload.ErdosRenyi(60, 0.1, true, rng)
	d, err := NewDynamic(g.Clone(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	replica := d.Scheme()
	var deltas []*GenDelta
	for len(deltas) < 2 {
		batch := driftBatch(d.Scheme(), rng)
		if len(batch) == 0 {
			t.Fatal("no incremental batch available")
		}
		rep, delta, _, err := d.Commit(batch)
		if err != nil {
			t.Fatalf("commit: %v", err)
		}
		if !rep.Incremental {
			t.Fatalf("batch %v fell back to rebuild", batch)
		}
		deltas = append(deltas, delta)
	}
	if _, _, err := ApplyDelta(replica, deltas[1]); !errors.Is(err, ErrDeltaGap) {
		t.Fatalf("skipping a generation = %v, want ErrDeltaGap", err)
	}
	// Tamper with the op sequence: the replayed graph diverges and the
	// graph-op or token check must refuse it. (Label-payload corruption is
	// the genlog checksum's job — the token fingerprints the graph, the
	// parameters, and the generation, not payload bytes.)
	badOps := *deltas[0]
	badOps.Ops = append([]Update(nil), badOps.Ops...)
	badOps.Ops[0].Add = !badOps.Ops[0].Add
	if _, _, err := ApplyDelta(replica, &badOps); err == nil {
		t.Fatal("op-sequence tamper replayed without error")
	}
}

// TestDeltaCancelledEdgeIsClean: a batch that inserts an edge and deletes
// it again XORs the edge's row into every tree edge on its path twice, so
// no label changes. The delta must name no dirty edge, the report must
// relabel nothing (so the cache sweep and the log drop nothing), and the
// replay must still reproduce the primary byte for byte.
func TestDeltaCancelledEdgeIsClean(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d, err := NewDynamic(workload.ErdosRenyi(200, 0.03, true, rng), Params{MaxFaults: 3})
	if err != nil {
		t.Fatal(err)
	}
	replica := d.Scheme()
	u, v, ok := pickAddable(replica.Graph(), replica.Forest, rng)
	if !ok {
		t.Fatal("no addable edge")
	}
	rep, delta, s, err := d.Commit([]Update{{Add: true, U: u, V: v}, {U: u, V: v}})
	if err != nil || !rep.Incremental {
		t.Fatalf("commit: rep %+v, err %v", rep, err)
	}
	if len(delta.DirtyIdx) != 0 || len(delta.DirtyXor) != 0 || len(delta.AddedIdx) != 0 || len(rep.Relabeled) != 0 {
		t.Fatalf("add+remove of (%d,%d): dirty %v, added %v, relabeled %v; want none",
			u, v, delta.DirtyIdx, delta.AddedIdx, rep.Relabeled)
	}
	_, next, err := ApplyDelta(replica, delta)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	schemesByteIdentical(t, s, next)
}

// TestDeltaNoopCommit asserts an empty batch exports no delta.
func TestDeltaNoopCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := workload.ErdosRenyi(30, 0.15, true, rng)
	d, err := NewDynamic(g.Clone(), Params{MaxFaults: 2})
	if err != nil {
		t.Fatalf("NewDynamic: %v", err)
	}
	rep, delta, _, err := d.Commit(nil)
	if err != nil || delta != nil {
		t.Fatalf("empty commit: rep=%+v delta=%+v err=%v", rep, delta, err)
	}
}

// TestApplyDeltaRefusesPoisonedLabel: on a lazily loaded replica a label
// slot that fails to decode reads back poisoned, and replay must refuse to
// carry it into the next generation rather than restamp it as valid. Edge
// 1 is a slot the commit below does not dirty, so only the carry reads it.
func TestApplyDeltaRefusesPoisonedLabel(t *testing.T) {
	for _, slot := range []string{"edge", "vertex"} {
		t.Run(slot, func(t *testing.T) {
			d, err := NewDynamic(workload.Petersen(), Params{MaxFaults: 2})
			if err != nil {
				t.Fatal(err)
			}
			data, err := d.Scheme().MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			replica, err := UnmarshalScheme(data)
			if err != nil {
				t.Fatal(err)
			}
			a := replica.lazy
			if slot == "edge" {
				a.edgeBytes[a.edgeOff[1]] ^= 0xff
			} else {
				a.vertBytes[a.vertOff[1]] ^= 0xff
			}
			_, delta, _, err := d.Commit([]Update{{Add: true, U: 0, V: 2}})
			if err != nil {
				t.Fatal(err)
			}
			if slices.Contains(delta.DirtyIdx, 1) {
				t.Fatalf("edge 1 is dirty in the delta (%v); the carry path is not exercised", delta.DirtyIdx)
			}
			if _, _, err := ApplyDelta(replica, delta); !errors.Is(err, ErrDeltaMismatch) {
				t.Fatalf("replay over a poisoned %s label: got %v, want ErrDeltaMismatch", slot, err)
			}
		})
	}
}
