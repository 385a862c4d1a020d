package serve

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	ftc "repro"
	"repro/internal/workload"
)

// TestExecutorRetryKeepsDecodedRequest runs one decoded JSON query through
// two executor attempts, as the stale-label retry does. The index faults
// sit in a slice with spare capacity and one more fault is named by its
// endpoints, so canonicalizing over the decoded request would sort the
// resolved edge into that capacity and the retry would answer for a
// different fault set. The request must come out of each attempt as sent,
// and both attempts must resolve the same canonical set.
func TestExecutorRetryKeepsDecodedRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := workload.ErdosRenyi(120, 8/120.0, true, rng)
	sch, err := ftc.NewFromGraph(g, ftc.WithMaxFaults(3))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(sch, 16)
	hi, e0 := g.M()-1, g.Edges[0]
	body := fmt.Sprintf(`{"faults":[[%d,%d]],"fault_edges":[%d],"pairs":[[0,1],[2,3]]}`, e0.U, e0.V, hi)

	var sc jsonScratch
	sc.edges.FaultEdges = make([]int, 0, 4)
	r := httptest.NewRequest(http.MethodPost, "/connected", strings.NewReader(body))
	if err := sc.decode(productProbe, httptest.NewRecorder(), r); err != nil {
		t.Fatal(err)
	}
	if len(sc.edges.FaultEdges) != 1 || cap(sc.edges.FaultEdges) < 2 {
		t.Fatalf("decoded fault_edges %v (cap %d): want one index with spare capacity", sc.edges.FaultEdges, cap(sc.edges.FaultEdges))
	}
	sentEdges := slices.Clone(sc.edges.FaultEdges[:cap(sc.edges.FaultEdges)])
	sentEnds := slices.Clone(sc.edges.Faults)

	want := []int{0, hi}
	for attempt := 0; attempt < 2; attempt++ {
		if status, err := srv.attempt(&sc.x); err != nil {
			t.Fatalf("attempt %d: status %d: %v", attempt, status, err)
		}
		if !slices.Equal(sc.edges.FaultEdges[:cap(sc.edges.FaultEdges)], sentEdges) || !slices.Equal(sc.edges.Faults, sentEnds) {
			t.Fatalf("attempt %d mutated the decoded request: fault_edges %v, faults %v",
				attempt, sc.edges.FaultEdges[:cap(sc.edges.FaultEdges)], sc.edges.Faults)
		}
		if !slices.Equal(sc.x.canon, want) || sc.x.faults != len(want) {
			t.Fatalf("attempt %d resolved canonical set %v (%d faults), want %v", attempt, sc.x.canon, sc.x.faults, want)
		}
		if sc.x.hit != (attempt == 1) {
			t.Fatalf("attempt %d: cache hit %v", attempt, sc.x.hit)
		}
	}
}
