package graphio

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/workload"
)

func TestReadGraphBasic(t *testing.T) {
	in := `
# a triangle with one weighted edge
n 3
e 0 1
e 1 2 7
e 0 2
`
	g, err := ReadGraph(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 3 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if g.Weight(1) != 7 || g.Weight(0) != 1 {
		t.Fatalf("weights: %d, %d", g.Weight(1), g.Weight(0))
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"edge before n":  "e 0 1\n",
		"duplicate n":    "n 3\nn 4\n",
		"bad count":      "n x\n",
		"bad endpoint":   "n 3\ne 0 q\n",
		"self loop":      "n 3\ne 1 1\n",
		"unknown":        "n 3\nz 1 2\n",
		"bad weight":     "n 3\ne 0 1 heavy\n",
		"argument count": "n 3\ne 0\n",
	}
	for name, in := range cases {
		if _, err := ReadGraph(strings.NewReader(in)); !errors.Is(err, ErrFormat) && !errors.Is(err, graph.ErrBadEdge) {
			t.Errorf("%s: err = %v, want format error", name, err)
		}
	}
}

func TestGraphRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := workload.ErdosRenyi(30, 0.2, true, rng)
	workload.AssignRandomWeights(g, 50, rng)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed shape")
	}
	for e := range g.Edges {
		if back.Edges[e] != g.Edges[e] || back.Weight(e) != g.Weight(e) {
			t.Fatalf("edge %d changed", e)
		}
	}
}
