package main

import (
	"testing"

	"repro/internal/workload"
)

// cycleInputs is a 6-cycle 0-1-2-3-4-5-0 (edge i joins i and i+1 mod 6)
// with one edge event cutting edges 0 and 3, which splits {1,2,3} from
// {4,5,0}, and one vertex event failing vertex 3.
func cycleInputs() *inputs {
	return &inputs{
		g:       workload.Cycle(6),
		f:       2,
		edgeEv:  [][]int{{0, 3}},
		vertEv:  [][]int{{3}},
		batches: [][][2]int{{{1, 3}, {1, 4}}},
	}
}

func TestOracleAcceptsRightAnswers(t *testing.T) {
	o := &oracle{in: cycleInputs()}
	recs := []record{
		{req: request{op: opProbe}, bits: 0b01},  // 1–3 connected, 1–4 not
		{req: request{op: opVProbe}, bits: 0b10}, // 3 itself failed; 1–4 around the other side
		{req: request{op: opRoute}, bits: 0b01, paths: [][]int{{1, 2, 3}, nil}},
		{req: request{op: opVProbe}, bits: 0b00, approx: true}, // one-sided: "no" is always allowed
	}
	if wrong, msgs := o.verify(recs); wrong != 0 {
		t.Fatalf("right answers rejected: %d %v", wrong, msgs)
	}
}

func TestOracleRejectsFlippedAnswer(t *testing.T) {
	o := &oracle{in: cycleInputs()}
	if wrong, _ := o.verify([]record{{req: request{op: opProbe}, bits: 0b11}}); wrong != 1 {
		t.Fatalf("flipped probe answer: %d wrong, want 1", wrong)
	}
	// An approx "connected" must hold in the oracle too.
	if wrong, _ := o.verify([]record{{req: request{op: opVProbe}, bits: 0b11, approx: true}}); wrong != 1 {
		t.Fatalf("unsound approx answer: %d wrong, want 1", wrong)
	}
}

func TestOracleRejectsPathThroughForbiddenEdge(t *testing.T) {
	o := &oracle{in: cycleInputs()}
	// 1→0→5→4→3 reaches 3, but 1–0 is the forbidden edge 0.
	rec := record{req: request{op: opRoute}, bits: 0b01, paths: [][]int{{1, 0, 5, 4, 3}, nil}}
	if wrong, _ := o.verify([]record{rec}); wrong != 1 {
		t.Fatalf("path over a forbidden edge: %d wrong, want 1", wrong)
	}
	// A path that skips a hop is not a path of the graph.
	rec.paths[0] = []int{1, 3}
	if wrong, _ := o.verify([]record{rec}); wrong != 1 {
		t.Fatalf("path with a non-edge hop: %d wrong, want 1", wrong)
	}
}

func TestOracleRejectsOtherGeneration(t *testing.T) {
	o := &oracle{in: cycleInputs(), gen: 1}
	// The answer itself is right for the graph, but reports a generation
	// the deployment never served.
	if wrong, _ := o.verify([]record{{req: request{op: opProbe}, gen: 2, bits: 0b01}}); wrong != 1 {
		t.Fatal("an answer from a generation the deployment never served was accepted")
	}
	if wrong, msgs := o.verify([]record{{req: request{op: opProbe}, gen: 1, bits: 0b01}}); wrong != 0 {
		t.Fatalf("right answer at the deployed generation rejected: %v", msgs)
	}
}
