package routing

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

// executePathsDigest is the FNV-64a digest of every forwarding decision
// over the fixed corpus of TestExecutePathsDigest, computed when the
// tables were one map per node and Execute took a predicate. A change in
// any table lookup, plan or hop order changes it.
const executePathsDigest = 0x40d9a879145baa9f

// TestExecutePathsDigest routes a fixed corpus — ER, grid and power-law
// graphs, f = 3, seeded tree-edge and random fault sets — through both
// planners (the compiled FaultSet's and the one-shot one behind Route)
// and digests every reachability answer and every vertex of every path.
// The corpus must route at least 500 pairs, at least 100 of them across a
// non-tree edge, so the digest covers the crossing logic and not only
// tree forwarding.
func TestExecutePathsDigest(t *testing.T) {
	const f = 3
	families := []struct {
		name string
		gen  func(rng *rand.Rand) *graph.Graph
	}{
		{"er", func(rng *rand.Rand) *graph.Graph { return workload.ErdosRenyi(200, 0.03, true, rng) }},
		{"grid", func(*rand.Rand) *graph.Graph { return workload.Grid(14, 14) }},
		{"powerlaw", func(rng *rand.Rand) *graph.Graph { return workload.PowerLawCluster(200, 2, 0.3, rng) }},
	}
	h := fnv.New64a()
	var buf []byte
	record := func(ok bool, path []int) {
		buf = binary.LittleEndian.AppendUint32(buf[:0], uint32(len(path)))
		if ok {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		for _, v := range path {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h.Write(buf)
	}
	routed, crossed := 0, 0
	for fi, fam := range families {
		rng := rand.New(rand.NewSource(int64(40 + fi)))
		g := fam.gen(rng)
		net, err := Build(g, f)
		if err != nil {
			t.Fatalf("%s: build: %v", fam.name, err)
		}
		sch := net.Scheme()
		for trial := 0; trial < 60; trial++ {
			var faults []int
			if trial%4 == 3 {
				faults = workload.RandomFaults(g, 1+rng.Intn(f), rng)
			} else {
				faults = workload.TreeEdgeFaults(g, sch.Forest, 2+rng.Intn(f-1), rng)
			}
			forbidden := slices.Clone(faults)
			slices.Sort(forbidden)
			forbidden = slices.Compact(forbidden)
			labels := make([]core.EdgeLabel, len(forbidden))
			for i, e := range forbidden {
				labels[i] = sch.EdgeLabel(e)
			}
			fs, err := core.CompileFaults(labels)
			if err != nil {
				t.Fatalf("%s trial %d: compile: %v", fam.name, trial, err)
			}
			for q := 0; q < 8; q++ {
				s, d := rng.Intn(g.N()), rng.Intn(g.N())
				plan, ok, err := fs.RoutePlan(sch.VertexLabel(s), sch.VertexLabel(d))
				if err != nil {
					t.Fatalf("%s trial %d: plan(%d,%d): %v", fam.name, trial, s, d, err)
				}
				var path []int
				if ok {
					var reached bool
					path, reached, err = net.Execute(nil, s, d, plan, forbidden)
					if err != nil || !reached {
						t.Fatalf("%s trial %d: execute(%d,%d): reached=%v err=%v", fam.name, trial, s, d, reached, err)
					}
					routed++
					if len(plan) > 1 {
						crossed++
					}
				}
				record(ok, path)
				path, ok, err = net.Route(s, d, faults)
				if err != nil {
					t.Fatalf("%s trial %d: Route(%d,%d): %v", fam.name, trial, s, d, err)
				}
				record(ok, path)
			}
		}
	}
	if routed < 500 || crossed < 100 {
		t.Fatalf("corpus routed %d pairs, %d across a non-tree edge; want ≥ 500 and ≥ 100", routed, crossed)
	}
	if got := h.Sum64(); got != executePathsDigest {
		t.Fatalf("path digest %#016x, want %#016x: a forwarding decision changed (%d routed, %d crossing)", got, uint64(executePathsDigest), routed, crossed)
	}
	t.Logf("%d routed pairs, %d across a non-tree edge", routed, crossed)
}
