package ftc

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestVertexFaultsVsGroundTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 6; trial++ {
		n := 18 + rng.Intn(30)
		g := workload.ErdosRenyi(n, 0.12, true, rng)
		// Budget must cover the incident edges of the failed vertices.
		maxDeg := 0
		for v := 0; v < n; v++ {
			if d := g.Degree(v); d > maxDeg {
				maxDeg = d
			}
		}
		const vf = 2
		s, err := NewFromGraph(g, WithMaxFaults(vf*maxDeg))
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < 40; q++ {
			dead := map[int]bool{}
			for len(dead) < 1+rng.Intn(vf) {
				dead[rng.Intn(n)] = true
			}
			var fl []VertexFaultLabel
			for v := range dead {
				fl = append(fl, s.VertexFaultLabel(v))
			}
			sv, tv := rng.Intn(n), rng.Intn(n)
			got, err := ConnectedVertexFaults(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := graph.ConnectedWithoutVertices(g, dead, sv, tv)
			if sv == tv && !dead[sv] {
				want = true
			}
			if got != want {
				t.Fatalf("trial %d: ConnectedVertexFaults(%d,%d,dead=%v) = %v, want %v",
					trial, sv, tv, dead, got, want)
			}
		}
	}
}

func TestVertexFaultLabelBits(t *testing.T) {
	g := workload.Grid(5, 5)
	s, err := NewFromGraph(g, WithMaxFaults(8))
	if err != nil {
		t.Fatal(err)
	}
	corner := s.VertexFaultLabel(0)  // degree 2
	center := s.VertexFaultLabel(12) // degree 4
	if corner.Bits() >= center.Bits() {
		t.Fatalf("corner label %d bits should be smaller than center %d bits",
			corner.Bits(), center.Bits())
	}
	if len(center.Incident) != 4 {
		t.Fatalf("center incident edges = %d, want 4", len(center.Incident))
	}
}

func TestVertexFaultQueryEndpointDead(t *testing.T) {
	g := workload.Cycle(6)
	s, err := NewFromGraph(g, WithMaxFaults(4))
	if err != nil {
		t.Fatal(err)
	}
	fl := []VertexFaultLabel{s.VertexFaultLabel(2)}
	got, err := ConnectedVertexFaults(s.VertexLabel(2), s.VertexLabel(4), fl)
	if err != nil || got {
		t.Fatalf("dead source: got=%v err=%v", got, err)
	}
}

func TestVertexFaultBudgetOverflow(t *testing.T) {
	g := workload.Complete(8)
	s, err := NewFromGraph(g, WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	fl := []VertexFaultLabel{s.VertexFaultLabel(0)} // degree 7 > budget 3
	if _, err := ConnectedVertexFaults(s.VertexLabel(1), s.VertexLabel(2), fl); !errors.Is(err, ErrTooManyFaults) {
		t.Fatalf("err = %v, want ErrTooManyFaults", err)
	}
}

// TestVertexFaultSharedEdgeDedupe: two adjacent failed vertices share their
// common edge; the shared edge must be charged against the budget once, not
// twice. On the 5-path with hubs 1 and 2 failed, the raw incident bundles
// hold 4 labels but only 3 distinct edges — a budget of exactly 3 must
// accept the query.
func TestVertexFaultSharedEdgeDedupe(t *testing.T) {
	g := graph.New(5)
	for i := 0; i < 4; i++ {
		if _, err := g.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	s, err := NewFromGraph(g, WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	fl := []VertexFaultLabel{s.VertexFaultLabel(1), s.VertexFaultLabel(2)}
	if raw := len(fl[0].Incident) + len(fl[1].Incident); raw != 4 {
		t.Fatalf("raw incident labels = %d, want 4", raw)
	}
	vfs, err := NewVertexFaultSet(fl)
	if err != nil {
		t.Fatalf("shared incident edge double-counted against the budget: %v", err)
	}
	if vfs.Faults() != 3 {
		t.Fatalf("deduped incident edges = %d, want 3", vfs.Faults())
	}
	got, err := ConnectedVertexFaults(s.VertexLabel(0), s.VertexLabel(4), fl)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Fatal("0 and 4 must be disconnected with both middle vertices dead")
	}
}

// TestVertexFaultSetReuse: the compiled VertexFaultSet must answer exactly
// like the one-shot ConnectedVertexFaults across repeated probes.
func TestVertexFaultSetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := workload.ErdosRenyi(40, 0.12, true, rng)
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	s, err := NewFromGraph(g, WithMaxFaults(2*maxDeg))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		dead := map[int]bool{}
		for len(dead) < 2 {
			dead[rng.Intn(g.N())] = true
		}
		var fl []VertexFaultLabel
		for v := range dead {
			fl = append(fl, s.VertexFaultLabel(v))
		}
		vfs, err := NewVertexFaultSet(fl)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for q := 0; q < 80; q++ {
			sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
			got, err := vfs.Connected(s.VertexLabel(sv), s.VertexLabel(tv))
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			one, err := ConnectedVertexFaults(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			want := graph.ConnectedWithoutVertices(g, dead, sv, tv)
			if sv == tv && !dead[sv] {
				want = true
			}
			if got != one || got != want {
				t.Fatalf("trial %d: probe(%d,%d): set=%v one-shot=%v truth=%v",
					trial, sv, tv, got, one, want)
			}
		}
	}
}

func TestVertexFaultTokenMismatch(t *testing.T) {
	a, err := New(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(4, [][2]int{{0, 1}, {1, 3}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	fl := []VertexFaultLabel{b.VertexFaultLabel(1)}
	if _, err := ConnectedVertexFaults(a.VertexLabel(0), a.VertexLabel(3), fl); !errors.Is(err, ErrLabelMismatch) {
		t.Fatalf("err = %v, want ErrLabelMismatch", err)
	}
}
