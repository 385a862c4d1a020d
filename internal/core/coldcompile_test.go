package core

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/workload"
)

// coldCorpus is one BenchmarkColdCompile series: a graph, its fault
// budget, and how many seeded fault sets of each kind to compile cold.
type coldCorpus struct {
	name       string
	graph      func() *graph.Graph
	f          int
	edgeSets   int // sets of 1..f edges, about half of them tree edges
	vertexSets int // sets of 1–2 vertices with at most f incident edges
}

// BenchmarkColdCompile is E23: the cost of a cache miss, timed per fault
// set as CompileFaults plus Session() (which forces every component's
// closure, so the Reed–Solomon decodes run) on a scheme built once. Each
// set compiles into a fresh FaultSet, so nothing is reused between sets
// but the decoder's pooled scratch. It reports the per-set p50, p99 and
// max; ns/op is one pass over the corpus.
//
// The corpora: E20's ER graph (n=192, p=8/n, seed 40, f=3), whose
// single-edge sets exposed the failed prefix decodes; products-churn's
// power-law graph (n=1024, f=4) with edge and vertex sets; and the same
// graph at f=8, where the threshold is K=768 rather than 192.
func BenchmarkColdCompile(b *testing.B) {
	corpora := []coldCorpus{
		{
			name: "er-n192-f3",
			graph: func() *graph.Graph {
				return workload.ErdosRenyi(192, 8.0/192, true, rand.New(rand.NewSource(40)))
			},
			f:        3,
			edgeSets: 300,
		},
		{
			name: "powerlaw-n1024-f4",
			graph: func() *graph.Graph {
				return workload.PowerLawCluster(1024, 4, 0.3, rand.New(rand.NewSource(1)))
			},
			f:          4,
			edgeSets:   200,
			vertexSets: 60,
		},
		{
			name: "powerlaw-n1024-f8",
			graph: func() *graph.Graph {
				return workload.PowerLawCluster(1024, 4, 0.3, rand.New(rand.NewSource(1)))
			},
			f:          8,
			edgeSets:   160,
			vertexSets: 40,
		},
	}
	for _, c := range corpora {
		b.Run(c.name, func(b *testing.B) {
			g := c.graph()
			s, err := Build(g, Params{MaxFaults: c.f})
			if err != nil {
				b.Fatal(err)
			}
			sets := coldFaultSets(g, s, c, rand.New(rand.NewSource(41)))
			var times []time.Duration
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, fl := range sets {
					start := time.Now()
					fs, err := CompileFaults(fl)
					if err == nil {
						_, err = fs.Session()
					}
					times = append(times, time.Since(start))
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			slices.Sort(times)
			us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
			b.ReportMetric(us(times[len(times)/2]), "p50-us")
			b.ReportMetric(us(times[(len(times)*99+99)/100-1]), "p99-us")
			b.ReportMetric(us(times[len(times)-1]), "max-us")
			b.ReportMetric(float64(len(sets)), "sets")
		})
	}
}

// coldFaultSets draws c's fault sets as label slices. Edge sets take
// ⌈size/2⌉ spanning-tree edges (a non-tree fault splits no fragment) and
// fill up with random edges, as perfbench's products-churn does; a vertex
// set is the incident edges of 1–2 vertices, charged once per edge, the
// reduction the serving tier applies before its cache.
func coldFaultSets(g *graph.Graph, s *Scheme, c coldCorpus, rng *rand.Rand) [][]EdgeLabel {
	labels := func(edges []int) []EdgeLabel {
		slices.Sort(edges)
		edges = slices.Compact(edges)
		out := make([]EdgeLabel, len(edges))
		for i, e := range edges {
			out[i] = s.EdgeLabel(e)
		}
		return out
	}
	var sets [][]EdgeLabel
	for len(sets) < c.edgeSets {
		size := 1 + rng.Intn(c.f)
		tree := workload.TreeEdgeFaults(g, s.Forest, (size+1)/2, rng)
		sets = append(sets, labels(append(tree, workload.RandomFaults(g, size-len(tree), rng)...)))
	}
	for len(sets) < c.edgeSets+c.vertexSets {
		var edges []int
		for _, u := range []int{rng.Intn(g.N()), rng.Intn(g.N())}[:1+rng.Intn(2)] {
			for _, h := range g.Adj(u) {
				edges = append(edges, h.Edge)
			}
		}
		if fl := labels(edges); len(fl) <= c.f {
			sets = append(sets, fl)
		}
	}
	return sets
}
