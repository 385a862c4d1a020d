// Labeloracle: labels as a persistent artifact. Build a scheme snapshot for
// a mid-size network, reload it in a fresh "query site" that decides
// reachability from labels alone, and serve a burst of probes for one
// failure event through a Session (fragment discovery runs once; each probe
// is then a lookup).
//
//	go run ./examples/labeloracle
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(5))
	g := workload.RandomRegular(64, 4, rng)
	const f = 3

	// ---- build side: has the graph, produces the scheme snapshot.
	scheme, err := core.Build(g, core.Params{MaxFaults: f})
	if err != nil {
		log.Fatal(err)
	}
	snap, err := scheme.MarshalBinary()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built scheme snapshot: %d vertices, %d edges, %d KiB\n",
		g.N(), g.M(), len(snap)/1024)

	// ---- query side: only the snapshot's labels.
	loaded, err := core.UnmarshalScheme(snap)
	if err != nil {
		log.Fatal(err)
	}

	// One failure event: three links go down.
	down := workload.RandomFaults(g, f, rng)
	advisory := make([]core.EdgeLabel, len(down))
	for i, e := range down {
		advisory[i] = loaded.EdgeLabel(e)
	}
	fmt.Printf("failure event:")
	for _, e := range down {
		fmt.Printf(" (%d-%d)", g.Edges[e].U, g.Edges[e].V)
	}
	fmt.Println()

	// Compile the failure event once; serve the burst through the eagerly
	// closed session view (each probe is an allocation-free lookup).
	fs, err := core.CompileFaults(advisory)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := fs.Session()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session: %d fragments → %d components\n\n", sess.Fragments(), sess.Components())

	// A burst of probes, validated against ground truth.
	mismatches := 0
	for probe := 0; probe < 2000; probe++ {
		s, t := rng.Intn(g.N()), rng.Intn(g.N())
		ok, err := sess.Connected(loaded.VertexLabel(s), loaded.VertexLabel(t))
		if err != nil {
			log.Fatal(err)
		}
		if ok != graph.ConnectedUnder(g, workload.FaultSet(down), s, t) {
			mismatches++
		}
	}
	fmt.Printf("2000 probes served from the session: %d mismatches vs ground truth\n", mismatches)
}
