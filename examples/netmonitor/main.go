// Netmonitor: the paper's motivating scenario — a distributed network where
// nodes must answer "can I still reach X?" during link failures without any
// global view — extended to a network whose topology itself changes. Each
// node holds only its own O(log n)-bit label; link-failure advisories carry
// the failed links' labels; any node decides reachability locally with the
// universal decoder.
//
// The example simulates a 48-node ISP-like topology (preferential
// attachment, hub-heavy) through alternating phases:
//
//   - failure waves: up to f random links go down at once; the NOC compiles
//     the advisory once per wave and probes it, checked against ground
//     truth;
//   - maintenance windows: links are provisioned and decommissioned through
//     the mutable ftc.Network — single-link changes commit incrementally
//     (only the dirtied tree-path labels are rewritten), bigger surgery
//     falls back to a full rebuild — bumping the generation each time;
//   - a stale-advisory incident: a probe mixing labels from a superseded
//     generation fails fast with ErrStaleLabel instead of answering against
//     a topology that no longer exists.
//
// Run it with
//
//	go run ./examples/netmonitor
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	ftc "repro"
	"repro/internal/graph"
	"repro/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(2024))
	g := workload.PreferentialAttachment(48, 2, rng)
	const f = 4
	net, err := ftc.OpenFromGraph(g, ftc.WithMaxFaults(f))
	if err != nil {
		log.Fatal(err)
	}
	st := net.Stats()
	fmt.Printf("network: %d nodes, %d links (generation %d); labels: %d bits/node, ≤%d bits/link\n\n",
		net.N(), net.M(), net.Generation(), st.VertexLabelBits, st.MaxEdgeLabelBits)

	monitor := 0 // the NOC node running reachability checks
	targets := []int{12, 23, 34, 45, 47}
	var staleAdvisory []ftc.EdgeLabel // kept across a topology change below

	for wave := 1; wave <= 4; wave++ {
		// Every wave probes the *current* generation's labels.
		snap := net.Snapshot()
		sg := snap.Graph()

		// A failure wave: up to f random links go down at once. The NOC
		// compiles the advisory once per wave — every probe of the wave is
		// then an allocation-free lookup against the same FaultSet.
		down := workload.RandomFaults(sg, 1+rng.Intn(f), rng)
		advisory := make([]ftc.EdgeLabel, len(down))
		for i, e := range down {
			advisory[i] = snap.EdgeLabelByIndex(e)
		}
		if wave == 1 {
			staleAdvisory = advisory
		}
		fs, err := ftc.NewFaultSet(advisory)
		if err != nil {
			log.Fatalf("advisory: %v", err)
		}
		fmt.Printf("wave %d (generation %d): links down:", wave, snap.Generation())
		for _, e := range down {
			fmt.Printf(" (%d-%d)", sg.Edges[e].U, sg.Edges[e].V)
		}
		fmt.Println()
		for _, tgt := range targets {
			ok, err := fs.Connected(snap.VertexLabel(monitor), snap.VertexLabel(tgt))
			if err != nil {
				log.Fatalf("decoder: %v", err)
			}
			truth := graph.ConnectedUnder(sg, workload.FaultSet(down), monitor, tgt)
			status := "reachable  "
			if !ok {
				status = "UNREACHABLE"
			}
			agree := "✓"
			if ok != truth {
				agree = "✗ (decoder bug!)"
			}
			fmt.Printf("  node %2d → %2d: %s %s\n", monitor, tgt, status, agree)
		}

		// A maintenance window between waves: provision one redundant link
		// and decommission one, committed as a single generation.
		cur := net.Graph()
		for tries := 0; tries < 500; tries++ {
			u, v := rng.Intn(cur.N()), rng.Intn(cur.N())
			if u != v && !cur.HasEdge(u, v) {
				if err := net.AddEdge(u, v); err == nil {
					fmt.Printf("  maintenance: provisioning link (%d-%d)", u, v)
					break
				}
			}
		}
		e := cur.Edges[rng.Intn(cur.M())]
		if err := net.RemoveEdge(e.U, e.V); err == nil {
			fmt.Printf(", decommissioning (%d-%d)", e.U, e.V)
		}
		rep, err := net.Commit()
		if err != nil {
			log.Fatalf("commit: %v", err)
		}
		mode := "full rebuild"
		if rep.Incremental {
			mode = fmt.Sprintf("incremental, %d labels rewritten", len(rep.Relabeled))
		}
		fmt.Printf(" → generation %d (%s)\n\n", rep.Gen, mode)
	}

	// The stale-advisory incident: the wave-1 advisory against today's
	// labels. The decoder refuses — the topology it described is gone.
	fs, err := ftc.NewFaultSet(staleAdvisory)
	if err != nil {
		log.Fatalf("stale advisory compile: %v", err)
	}
	_, err = fs.Connected(net.VertexLabel(monitor), net.VertexLabel(targets[0]))
	if errors.Is(err, ftc.ErrStaleLabel) {
		fmt.Printf("stale wave-1 advisory vs generation %d: correctly rejected (%v)\n", net.Generation(), err)
	} else {
		log.Fatalf("stale advisory was not rejected: %v", err)
	}
}
