package ftc

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// testNetworkEdges is a 2-connected 12-vertex graph with redundant edges,
// so both incremental insertions (within the one component) and incremental
// deletions (non-tree edges) are available.
func testNetworkEdges() [][2]int {
	var edges [][2]int
	for i := 0; i < 12; i++ {
		edges = append(edges, [2]int{i, (i + 1) % 12})
	}
	edges = append(edges, [2]int{0, 6}, [2]int{2, 9}, [2]int{4, 10})
	return edges
}

func TestNetworkLifecycle(t *testing.T) {
	nw, err := Open(12, testNetworkEdges(), WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	if nw.Generation() != 1 {
		t.Fatalf("fresh network at generation %d, want 1", nw.Generation())
	}
	snap1 := nw.Snapshot()

	// Pick a genuinely redundant (non-tree) edge to delete, so the whole
	// batch is incremental-eligible.
	forest := snap1.Inner().Forest
	ru, rv := -1, -1
	for e, tree := range forest.IsTreeEdge {
		if !tree {
			ru, rv = snap1.Graph().Edges[e].U, snap1.Graph().Edges[e].V
			break
		}
	}
	if ru < 0 {
		t.Fatal("test graph has no non-tree edge")
	}

	// Stage a batch; the snapshot must not move until Commit.
	if err := nw.AddEdge(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := nw.RemoveEdge(ru, rv); err != nil {
		t.Fatal(err)
	}
	if nw.Pending() != 2 {
		t.Fatalf("pending %d, want 2", nw.Pending())
	}
	if nw.Generation() != 1 || nw.M() != len(testNetworkEdges()) {
		t.Fatal("staging must not change the committed generation")
	}

	rep, err := nw.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Gen != 2 || nw.Generation() != 2 || nw.Pending() != 0 {
		t.Fatalf("after commit: rep.Gen=%d gen=%d pending=%d", rep.Gen, nw.Generation(), nw.Pending())
	}
	if !rep.Incremental {
		t.Fatalf("redundant add+remove should commit incrementally (reason %q)", rep.Reason)
	}
	if !nw.Graph().HasEdge(1, 7) || nw.Graph().HasEdge(ru, rv) {
		t.Fatal("committed topology wrong")
	}

	// The old snapshot is immutable: generation 1, original topology.
	if snap1.Generation() != 1 || !snap1.Graph().HasEdge(ru, rv) || snap1.Graph().HasEdge(1, 7) {
		t.Fatal("pre-commit snapshot mutated")
	}

	// Empty commit: no-op.
	rep, err = nw.Commit()
	if err != nil || rep.Gen != 2 {
		t.Fatalf("empty commit: rep=%+v err=%v", rep, err)
	}

	// Answers match the BFS oracle on the mutated graph, and a fresh New.
	g := nw.Graph()
	fresh, err := New(12, edgeList(g), WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	snap := nw.Snapshot()
	for trial := 0; trial < 50; trial++ {
		faults := workload.RandomFaults(g, 1+rng.Intn(3), rng)
		fl := make([]EdgeLabel, len(faults))
		freshFl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = snap.EdgeLabelByIndex(e)
			freshFl[i] = fresh.EdgeLabelByIndex(e)
		}
		sv, tv := rng.Intn(12), rng.Intn(12)
		want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
		got, err := Connected(snap.VertexLabel(sv), snap.VertexLabel(tv), fl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		freshGot, err := Connected(fresh.VertexLabel(sv), fresh.VertexLabel(tv), freshFl)
		if err != nil {
			t.Fatalf("trial %d: fresh: %v", trial, err)
		}
		if got != want || freshGot != want {
			t.Fatalf("trial %d: network=%v fresh=%v oracle=%v", trial, got, freshGot, want)
		}
	}
}

func edgeList(g *graph.Graph) [][2]int {
	out := make([][2]int, g.M())
	for i, e := range g.Edges {
		out[i] = [2]int{e.U, e.V}
	}
	return out
}

func TestNetworkStagingValidation(t *testing.T) {
	nw, err := Open(12, testNetworkEdges())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		do   func() error
	}{
		{"add existing", func() error { return nw.AddEdge(0, 1) }},
		{"remove missing", func() error { return nw.RemoveEdge(1, 5) }},
		{"self-loop", func() error { return nw.AddEdge(4, 4) }},
		{"out of range", func() error { return nw.AddEdge(3, 99) }},
	} {
		if err := tc.do(); err == nil {
			t.Errorf("%s: staged without error", tc.name)
		}
	}
	if err := nw.AddEdge(1, 7); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddEdge(7, 1); err == nil {
		t.Error("same endpoint pair staged twice in one batch")
	}
	nw.Discard()
	if nw.Pending() != 0 {
		t.Fatal("discard left staged mutations")
	}
	// CommitBatch refuses to bypass a half-staged batch.
	if err := nw.AddEdge(1, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CommitBatch([][2]int{{2, 7}}, nil); err == nil {
		t.Error("CommitBatch ignored staged mutations")
	}
	nw.Discard()
	if _, err := nw.CommitBatch([][2]int{{2, 7}}, [][2]int{{0, 6}}); err != nil {
		t.Fatal(err)
	}
	if nw.Generation() != 2 {
		t.Fatalf("generation %d after CommitBatch, want 2", nw.Generation())
	}
}

// TestNetworkStaleSnapshots: labels taken from superseded snapshots must be
// rejected with ErrStaleLabel at the public API.
func TestNetworkStaleSnapshots(t *testing.T) {
	nw, err := Open(12, testNetworkEdges())
	if err != nil {
		t.Fatal(err)
	}
	old := nw.Snapshot()
	if _, err := nw.CommitBatch([][2]int{{1, 7}}, nil); err != nil {
		t.Fatal(err)
	}
	cur := nw.Snapshot()
	if _, err := Connected(old.VertexLabel(0), cur.VertexLabel(1), nil); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("got %v, want ErrStaleLabel", err)
	}
	fl := []EdgeLabel{old.MustEdgeLabel(0, 1)}
	if _, err := NewFaultSet(append(fl, cur.MustEdgeLabel(2, 3))); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("mixed-generation fault set: got %v, want ErrStaleLabel", err)
	}
	// ...and ErrStaleLabel still reads as a label mismatch for old callers.
	if _, err := Connected(old.VertexLabel(0), cur.VertexLabel(1), nil); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("ErrStaleLabel does not match ErrLabelMismatch: %v", err)
	}
	// Probing entirely within the old snapshot still works.
	if _, err := Connected(old.VertexLabel(0), old.VertexLabel(5), fl); err != nil {
		t.Fatalf("self-consistent old-generation probe: %v", err)
	}
}

// TestNetworkStaleSession: a session compiled at one generation reports
// vertex labels of a later generation as stale, exactly as the FaultSet it
// wraps does, and keeps answering probes at its own generation.
func TestNetworkStaleSession(t *testing.T) {
	nw, err := Open(12, testNetworkEdges(), WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	old := nw.Snapshot()
	fs, err := NewFaultSet([]EdgeLabel{old.MustEdgeLabel(0, 1), old.MustEdgeLabel(5, 6)})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := fs.Session()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CommitBatch([][2]int{{1, 7}}, nil); err != nil {
		t.Fatal(err)
	}
	cur := nw.Snapshot()
	if cur.Generation() != old.Generation()+1 {
		t.Fatalf("generation %d after one commit from %d", cur.Generation(), old.Generation())
	}
	if _, err := fs.Connected(cur.VertexLabel(0), cur.VertexLabel(5)); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("FaultSet: got %v, want ErrStaleLabel", err)
	}
	if _, err := sess.Connected(cur.VertexLabel(0), cur.VertexLabel(5)); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("Session: got %v, want ErrStaleLabel", err)
	}
	ok, err := sess.Connected(old.VertexLabel(0), old.VertexLabel(5))
	if err != nil || !ok {
		t.Fatalf("same-generation session probe: ok=%v err=%v", ok, err)
	}
}

// TestNetworkRoundTrippedLabelsInteroperate: the wire codecs omit the
// in-memory generation stamp, so a label that went through
// Marshal/Unmarshal (Gen 0) must keep validating against live labels of
// the same generation — the token carries the generation. Regression for
// the advisory use case (marshaled fault labels probed against live
// vertex labels).
func TestNetworkRoundTrippedLabelsInteroperate(t *testing.T) {
	nw, err := Open(12, testNetworkEdges())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CommitBatch([][2]int{{1, 7}}, nil); err != nil {
		t.Fatal(err)
	}
	snap := nw.Snapshot()
	el, err := UnmarshalEdgeLabel(MarshalEdgeLabel(snap.EdgeLabelByIndex(5)))
	if err != nil {
		t.Fatal(err)
	}
	fs, err := NewFaultSet([]EdgeLabel{el})
	if err != nil {
		t.Fatalf("fault set over round-tripped label: %v", err)
	}
	if _, err := fs.Connected(snap.VertexLabel(0), snap.VertexLabel(3)); err != nil {
		t.Fatalf("round-tripped fault label vs live vertex labels: %v", err)
	}
	vl, err := UnmarshalVertexLabel(MarshalVertexLabel(snap.VertexLabel(0)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Connected(vl, snap.VertexLabel(3)); err != nil {
		t.Fatalf("round-tripped vertex label: %v", err)
	}
}

// TestNetworkSnapshotPersistence: a dynamic generation survives Save/Load
// with its generation stamp and byte-identical labels, and the loaded
// scheme still interoperates (stale-rejects) correctly.
func TestNetworkSnapshotPersistence(t *testing.T) {
	nw, err := Open(12, testNetworkEdges(), WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CommitBatch([][2]int{{1, 7}, {3, 8}}, [][2]int{{2, 9}}); err != nil {
		t.Fatal(err)
	}
	snap := nw.Snapshot()
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Generation() != snap.Generation() {
		t.Fatalf("loaded generation %d, want %d", loaded.Generation(), snap.Generation())
	}
	for v := 0; v < snap.N(); v++ {
		if !bytes.Equal(MarshalVertexLabel(snap.VertexLabel(v)), MarshalVertexLabel(loaded.VertexLabel(v))) {
			t.Fatalf("vertex %d label differs after round trip", v)
		}
	}
	for e := 0; e < snap.M(); e++ {
		if !bytes.Equal(MarshalEdgeLabel(snap.EdgeLabelByIndex(e)), MarshalEdgeLabel(loaded.EdgeLabelByIndex(e))) {
			t.Fatalf("edge %d label differs after round trip", e)
		}
	}
	// Loaded labels interoperate with the live generation they were saved
	// from, and stale-reject against later generations.
	if _, err := Connected(loaded.VertexLabel(0), snap.VertexLabel(5), nil); err != nil {
		t.Fatalf("loaded + live same-generation labels: %v", err)
	}
	if _, err := nw.CommitBatch([][2]int{{5, 11}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Connected(loaded.VertexLabel(0), nw.VertexLabel(5), nil); !errors.Is(err, ErrStaleLabel) {
		t.Fatalf("loaded labels vs newer generation: got %v, want ErrStaleLabel", err)
	}
}

// TestEdgeLabelByIndexAliasing is the copy-semantics audit: a label handed
// out by EdgeLabelByIndex (static scheme, network snapshot, and a snapshot
// after an incremental commit, whose dirty labels live in fresh arenas)
// must share no mutable state with the scheme — writing to any field of
// the returned label, including every Out word, must not change what the
// scheme hands out next. Parent/Child ancestry labels are plain value
// structs (three uint32s, no backing storage), so assignment copies them;
// this test pins that reasoning against future representation changes.
func TestEdgeLabelByIndexAliasing(t *testing.T) {
	nw, err := Open(12, testNetworkEdges(), WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.CommitBatch([][2]int{{1, 7}}, nil); err != nil { // dirty some labels incrementally
		t.Fatal(err)
	}
	static, err := New(12, testNetworkEdges(), WithMaxFaults(2))
	if err != nil {
		t.Fatal(err)
	}
	for name, sch := range map[string]interface {
		M() int
		EdgeLabelByIndex(int) EdgeLabel
	}{
		"static":           static,
		"network-snapshot": nw.Snapshot(),
	} {
		for e := 0; e < sch.M(); e++ {
			before := MarshalEdgeLabel(sch.EdgeLabelByIndex(e))
			l := sch.EdgeLabelByIndex(e)
			// Scribble over every field of the returned copy.
			l.Token, l.Gen, l.MaxFaults = ^l.Token, ^l.Gen, -1
			l.Spec.K, l.Spec.Levels = l.Spec.K+1, l.Spec.Levels+1
			l.Parent.Pre, l.Parent.Post, l.Parent.Root = 0, 0, 0
			l.Child.Pre, l.Child.Post, l.Child.Root = ^uint32(0), 0, 1
			for w := range l.Out {
				l.Out[w] = ^l.Out[w]
			}
			after := MarshalEdgeLabel(sch.EdgeLabelByIndex(e))
			if !bytes.Equal(before, after) {
				t.Fatalf("%s: edge %d label aliases scheme storage", name, e)
			}
		}
	}
}

// TestNetworkConcurrentProbesDuringCommit hammers snapshots with probes
// while commits run — the library-level counterpart of the serving layer's
// churn test; run under -race in CI.
func TestNetworkConcurrentProbesDuringCommit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := workload.ErdosRenyi(100, 0.08, true, rng)
	nw, err := Open(g.N(), edgeList(g), WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	errc := make(chan error, 4)
	for w := 0; w < 4; w++ {
		go func(seed int64) {
			prng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := nw.Snapshot()
				sg := snap.Graph()
				e := prng.Intn(sg.M())
				fs, err := NewFaultSet([]EdgeLabel{snap.EdgeLabelByIndex(e)})
				if err != nil {
					errc <- err
					return
				}
				tv := prng.Intn(sg.N())
				want := graph.ConnectedUnder(sg, map[int]bool{e: true}, 0, tv)
				got, err := fs.Connected(snap.VertexLabel(0), snap.VertexLabel(tv))
				if err != nil {
					errc <- err
					return
				}
				if got != want {
					errc <- errors.New("probe diverged from oracle during churn")
					return
				}
			}
		}(int64(w))
	}
	for i := 0; i < 30; i++ {
		snap := nw.Snapshot()
		sg := snap.Graph()
		var add, rem [][2]int
		for try := 0; try < 50 && add == nil; try++ {
			u, v := rng.Intn(sg.N()), rng.Intn(sg.N())
			if u != v && !sg.HasEdge(u, v) {
				add = [][2]int{{u, v}}
			}
		}
		for try := 0; try < 50 && rem == nil; try++ {
			e := rng.Intn(sg.M())
			rem = [][2]int{{sg.Edges[e].U, sg.Edges[e].V}}
		}
		if _, err := nw.CommitBatch(add, rem); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
