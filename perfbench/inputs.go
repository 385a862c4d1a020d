package main

import (
	"math/rand"
	"sort"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

// op is a request class; each class has its own latency series.
type op uint8

const (
	opProbe op = iota
	opRoute
	opVProbe
	numOps
)

var opNames = [numOps]string{"probe", "route", "vprobe"}

// batchPairs is how many s–t pairs every request carries.
const batchPairs = 16

// request is one generated request: a class, an event (an index into the
// edge events, or the vertex events for vprobe) and a pair batch.
type request struct {
	op    op
	event int32
	batch int32
}

// inputs is everything a workload generates from its seed. The servers
// only ever see the requests built from these.
type inputs struct {
	g       *graph.Graph // the graph the deployment starts from
	f       int
	edgeEv  [][]int    // canonical edge-index events
	vertEv  [][]int    // canonical vertex-index events
	batches [][][2]int // pair batches
	pool    []request  // request stream, cycled by every generator
}

// poolSize is the length of the generated request stream.
const poolSize = 1 << 16

// topologySeed fixes each workload's graph: the run's seed drives the
// traffic (failure events, pairs, request stream, update schedule), so
// runs with different seeds compare the same deployment.
const topologySeed = 1

// erGraph is edge-hot's Erdős–Rényi graph:
// n = 1024, average degree 8, connected.
func erGraph() *graph.Graph {
	return workload.ErdosRenyi(1024, 8.0/1024, true, rand.New(rand.NewSource(topologySeed)))
}

// powerLawGraph is products-churn's Holme–Kim power-law clustered graph.
func powerLawGraph() *graph.Graph {
	return workload.PowerLawCluster(1024, 4, 0.3, rand.New(rand.NewSource(topologySeed)))
}

// pairBatches draws count batches of batchPairs pairs with s ≠ t.
func pairBatches(n, count int, rng *rand.Rand) [][][2]int {
	out := make([][][2]int, count)
	for b := range out {
		ps := make([][2]int, batchPairs)
		for i := range ps {
			s, t := rng.Intn(n), rng.Intn(n-1)
			if t >= s {
				t++
			}
			ps[i] = [2]int{s, t}
		}
		out[b] = ps
	}
	return out
}

// canon sorts and deduplicates an index set.
func canon(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	k := 0
	for i, x := range out {
		if i == 0 || x != out[k-1] {
			out[k] = x
			k++
		}
	}
	return out[:k]
}

// lowDegreeVertices lists the vertices of degree 1..maxDeg: single-vertex
// failures whose incident edges fit the fault budget, so vertex probes on
// them take the exact path.
func lowDegreeVertices(g *graph.Graph, maxDeg int) []int {
	var out []int
	for v := 0; v < g.N(); v++ {
		if d := g.Degree(v); d >= 1 && d <= maxDeg {
			out = append(out, v)
		}
	}
	return out
}

// buildPool deals the request stream: the deck (one op per slot) is
// shuffled per block so every block of len(deck) requests has the exact
// mix, and pick chooses each request's event.
func buildPool(rng *rand.Rand, deck []op, batches int, pick func(o op) int32) []request {
	pool := make([]request, 0, poolSize)
	hand := append([]op(nil), deck...)
	for len(pool) < poolSize {
		rng.Shuffle(len(hand), func(i, j int) { hand[i], hand[j] = hand[j], hand[i] })
		for _, o := range hand {
			pool = append(pool, request{op: o, event: pick(o), batch: int32(rng.Intn(batches))})
		}
	}
	return pool[:poolSize]
}

// updateBatch is one generated /update batch and the generation its
// commit produces.
type updateBatch struct {
	add, remove [][2]int
	gen         uint64
}

// The update schedule puts a tree-edge delete in batch updTreeFirst and
// every updTreeEvery-th batch after it.
const (
	updTreeFirst = 9
	updTreeEvery = 7
)

// updateMix generates update batches against a live network: 1–4 ops of
// same-component non-edge inserts and non-tree deletes, and one seeded
// tree-edge delete, which forces a full rebuild, in batch treeFirst and
// every treeEvery-th after it.
type updateMix struct {
	rng                  *rand.Rand
	treeFirst, treeEvery int
	made                 int
}

// next generates one batch against the network's current generation.
func (u *updateMix) next(nw *ftc.Network) (add, remove [][2]int) {
	inner := nw.Snapshot().Inner()
	g, forest := inner.Graph(), inner.Forest
	used := map[graph.Edge]bool{}
	take := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		e := graph.Edge{U: a, V: b}
		if a == b || used[e] {
			return false
		}
		used[e] = true
		return true
	}
	ops := 1 + u.rng.Intn(4)
	for k := 0; k < ops; k++ {
		for try := 0; try < 200; try++ {
			if u.rng.Intn(2) == 0 {
				a, b := u.rng.Intn(g.N()), u.rng.Intn(g.N())
				if !g.HasEdge(a, b) && forest.Comp[a] == forest.Comp[b] && take(a, b) {
					add = append(add, [2]int{a, b})
					break
				}
			} else {
				e := u.rng.Intn(g.M())
				ed := g.Edges[e]
				if !forest.IsTreeEdge[e] && take(ed.U, ed.V) {
					remove = append(remove, [2]int{ed.U, ed.V})
					break
				}
			}
		}
	}
	u.made++
	if u.treeEvery > 0 && u.made >= u.treeFirst && (u.made-u.treeFirst)%u.treeEvery == 0 {
		for try := 0; try < 200; try++ {
			e := u.rng.Intn(g.M())
			ed := g.Edges[e]
			if forest.IsTreeEdge[e] && take(ed.U, ed.V) {
				remove = append(remove, [2]int{ed.U, ed.V})
				break
			}
		}
	}
	return add, remove
}
