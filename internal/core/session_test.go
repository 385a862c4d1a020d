package core

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

// mustSession compiles fl and returns its eager Session.
func mustSession(tb testing.TB, fl []EdgeLabel) *Session {
	tb.Helper()
	fs, err := CompileFaults(fl)
	if err != nil {
		tb.Fatal(err)
	}
	sess, err := fs.Session()
	if err != nil {
		tb.Fatal(err)
	}
	return sess
}

func TestSessionMatchesConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		n := 20 + rng.Intn(50)
		g := workload.ErdosRenyi(n, 0.1, true, rng)
		f := 1 + rng.Intn(4)
		s := mustBuild(t, g, Params{MaxFaults: f})
		faults := workload.TreeEdgeFaults(g, s.Forest, rng.Intn(f+1), rng)
		fl := make([]EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
		}
		sess := mustSession(t, fl)
		for q := 0; q < 100; q++ {
			sv, tv := rng.Intn(n), rng.Intn(n)
			got, err := sess.Connected(s.VertexLabel(sv), s.VertexLabel(tv))
			if err != nil {
				t.Fatal(err)
			}
			want := graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv)
			if got != want {
				t.Fatalf("trial %d: session Connected(%d,%d) = %v, want %v", trial, sv, tv, got, want)
			}
		}
	}
}

func TestSessionComponentCounts(t *testing.T) {
	// A path: every fault adds one component.
	g := graph.New(6)
	var ids []int
	for i := 0; i < 5; i++ {
		id, err := g.AddEdge(i, i+1)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	s := mustBuild(t, g, Params{MaxFaults: 2})
	fl := []EdgeLabel{s.EdgeLabel(ids[1]), s.EdgeLabel(ids[3])}
	sess := mustSession(t, fl)
	if sess.Fragments() != 3 {
		t.Fatalf("fragments = %d, want 3", sess.Fragments())
	}
	if sess.Components() != 3 {
		t.Fatalf("components = %d, want 3 (path faults are bridges)", sess.Components())
	}
	// A cycle closes the components back up.
	g2 := workload.Cycle(6)
	s2 := mustBuild(t, g2, Params{MaxFaults: 1})
	sess2 := mustSession(t, []EdgeLabel{s2.EdgeLabel(0)})
	if sess2.Components() != 1 {
		t.Fatalf("cycle minus one edge: components = %d, want 1", sess2.Components())
	}
}

func TestSessionNoFaults(t *testing.T) {
	g := workload.Cycle(5)
	s := mustBuild(t, g, Params{MaxFaults: 1})
	sess := mustSession(t, nil)
	ok, err := sess.Connected(s.VertexLabel(1), s.VertexLabel(4))
	if err != nil || !ok {
		t.Fatalf("no-fault session: ok=%v err=%v", ok, err)
	}
	if sess.Fragments() != 1 || sess.Components() != 1 {
		t.Fatalf("trivial session shape: %d/%d", sess.Fragments(), sess.Components())
	}
}

func TestSessionTokenMismatch(t *testing.T) {
	s1 := mustBuild(t, workload.Cycle(4), Params{MaxFaults: 1})
	s2 := mustBuild(t, workload.Cycle(5), Params{MaxFaults: 1})
	sess := mustSession(t, nil)
	if _, err := sess.Connected(s1.VertexLabel(0), s2.VertexLabel(1)); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("err = %v, want ErrLabelMismatch", err)
	}
}

func BenchmarkSessionVsPerQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g := workload.ErdosRenyi(256, 0.05, true, rng)
	const f = 4
	s, err := Build(g, Params{MaxFaults: f})
	if err != nil {
		b.Fatal(err)
	}
	faults := workload.TreeEdgeFaults(g, s.Forest, f, rng)
	fl := make([]EdgeLabel, len(faults))
	for i, e := range faults {
		fl[i] = s.EdgeLabel(e)
	}
	b.Run("per-query", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N()), fl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("session", func(b *testing.B) {
		sess := mustSession(b, fl)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sess.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
