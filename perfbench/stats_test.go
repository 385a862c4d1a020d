package main

import (
	"strings"
	"testing"
)

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	// 1000 samples: the nearest-rank p99 is the 990th, with exactly 10
	// samples beyond it, so it is reported as asked.
	v, used, ok := quantile(ascending(1000), 0.99)
	if !ok || v != 990 || used != 0.99 {
		t.Fatalf("n=1000 p99 = %v (used %v, ok %v), want 990 at 0.99", v, used, ok)
	}
	// 500 samples: rank 495 would leave 5 beyond it. The rule falls back to
	// rank 490, the highest with 10 samples beyond, and says so.
	v, used, ok = quantile(ascending(500), 0.99)
	if !ok || v != 490 || used != 0.98 {
		t.Fatalf("n=500 p99 = %v (used %v, ok %v), want fallback 490 at 0.98", v, used, ok)
	}
	// Ten or fewer samples can carry no percentile at all.
	if _, _, ok := quantile(ascending(10), 0.5); ok {
		t.Fatal("n=10 reported a percentile")
	}
	if v, _, ok := quantile(ascending(21), 0.5); !ok || v != 11 {
		t.Fatalf("n=21 p50 = %v (ok %v), want 11", v, ok)
	}
}

func TestChunkedQuantileFallsBackAndSaysSo(t *testing.T) {
	// 5000 samples: five windows of 1000, each with its own p99 of 990; a
	// stall in one window does not move the median.
	var xs []float64
	for w := 0; w < 5; w++ {
		xs = append(xs, ascending(1000)...)
	}
	for i := 0; i < 100; i++ {
		xs[i] = 1e6
	}
	v, note, ok := chunkedQuantile(xs, 0.99)
	if !ok || v != 990 || !strings.Contains(note, "median over 5 windows") {
		t.Fatalf("chunked p99 = %v (%q, ok %v)", v, note, ok)
	}
	// 500 samples cannot carry p99: a lower percentile is reported, named.
	v, note, ok = chunkedQuantile(ascending(500), 0.99)
	if !ok || v != 490 || !strings.Contains(note, "unreportable") || !strings.Contains(note, "p98.00 instead") {
		t.Fatalf("fallback p99 = %v (%q, ok %v)", v, note, ok)
	}
	if _, note, ok := chunkedQuantile([]float64{1, 2, 3}, 0.5); ok || !strings.Contains(note, "not reportable") {
		t.Fatalf("3 samples: %q ok=%v", note, ok)
	}
}
