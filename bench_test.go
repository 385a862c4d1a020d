package ftc

// One testing.B benchmark per paper table/figure, matching the experiment
// index in DESIGN.md §4 (E-numbers). Custom metrics are attached with
// b.ReportMetric so `go test -bench` output records the paper's quantities
// (label bits, rounds, stretch), not just wall time.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distlabel"
	"repro/internal/graph"
	"repro/internal/ptsketch"
	"repro/internal/routing"
	"repro/internal/workload"
)

// benchGraph builds the shared Table 1 workload.
func benchGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return workload.ErdosRenyi(n, 8/float64(n), true, rng)
}

// BenchmarkTable1 measures every scheme row of Table 1 on a common
// workload: construction once (setup), then per-op query cost; label sizes
// are reported as metrics.
func BenchmarkTable1(b *testing.B) {
	g := benchGraph(256, 1)
	const f = 3
	forest := graph.SpanningForest(g)
	rng := rand.New(rand.NewSource(2))
	faultSets := make([][]int, 64)
	for i := range faultSets {
		faultSets[i] = workload.TreeEdgeFaults(g, forest, 1+i%f, rng)
	}

	coreRows := []struct {
		name   string
		params core.Params
	}{
		{"ours-det-netfind", core.Params{MaxFaults: f, Kind: core.KindDetNetFind}},
		{"ours-rand-rs", core.Params{MaxFaults: f, Kind: core.KindRandRS, Seed: 3}},
		{"dp21-2-agm-whp", core.Params{MaxFaults: f, Kind: core.KindAGM, Seed: 4}},
		{"dp21-2-agm-full", core.Params{MaxFaults: f, Kind: core.KindAGM, Seed: 4, AGMReps: 4 * f * 8}},
	}
	for _, row := range coreRows {
		row := row
		b.Run(row.name, func(b *testing.B) {
			s, err := core.Build(g, row.params)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.MaxEdgeLabelBits()), "edgebits")
			b.ReportMetric(float64(core.VertexLabelBits), "vertbits")
			// Fault-label slices are resolved outside the timed loop so the
			// per-op figure measures decoding, not slice allocation.
			labelSets := make([][]core.EdgeLabel, len(faultSets))
			for i, faults := range faultSets {
				fl := make([]core.EdgeLabel, len(faults))
				for j, e := range faults {
					fl[j] = s.EdgeLabel(e)
				}
				labelSets[i] = fl
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl := labelSets[i%len(labelSets)]
				if _, err := core.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N()), fl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, full := range []bool{false, true} {
		name := "dp21-1-whp"
		if full {
			name = "dp21-1-full"
		}
		full := full
		b.Run(name, func(b *testing.B) {
			s, err := ptsketch.Build(g, ptsketch.Params{MaxFaults: f, Seed: 5, Full: full})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(s.LabelBits()), "edgebits")
			labelSets := make([][]ptsketch.EdgeLabel, len(faultSets))
			for i, faults := range faultSets {
				fl := make([]ptsketch.EdgeLabel, len(faults))
				for j, e := range faults {
					fl[j] = s.EdgeLabel(e)
				}
				labelSets[i] = fl
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fl := labelSets[i%len(labelSets)]
				if _, err := ptsketch.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N()), fl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuild is the construction-hot-path series (E14): every scheme
// kind × n × f combination, measuring one full core.Build. This is the
// benchmark behind BENCH_build.json (cmd/ftcbench -json) and the ≥3×
// construction-speed acceptance gate of the hot-path overhaul.
func BenchmarkBuild(b *testing.B) {
	kinds := []struct {
		name string
		kind core.Kind
	}{
		{"det-netfind", core.KindDetNetFind},
		{"det-greedy", core.KindDetGreedy},
		{"rand-rs", core.KindRandRS},
		{"agm", core.KindAGM},
	}
	for _, kr := range kinds {
		kr := kr
		for _, n := range []int{256, 1024, 4096} {
			n := n
			g := benchGraph(n, int64(n))
			for _, f := range []int{2, 3, 4} {
				f := f
				b.Run(kr.name+"/n="+itoa(n)+"/f="+itoa(f), func(b *testing.B) {
					if kr.kind == core.KindDetGreedy && n >= 256 {
						// The greedy ε-net construction is polynomial in m
						// (~3 min per Build already at n=256); its
						// trajectory is tracked by `ftcbench build` at
						// n=96 instead.
						b.Skip("det-greedy hierarchy construction takes minutes at this size")
					}
					b.ReportAllocs()
					var s *core.Scheme
					for i := 0; i < b.N; i++ {
						var err error
						s, err = core.Build(g, core.Params{MaxFaults: f, Kind: kr.kind, Seed: 17})
						if err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(g.M()), "edges")
					b.ReportMetric(float64(s.MaxEdgeLabelBits()), "edgebits")
				})
			}
		}
	}
}

// BenchmarkProbe is the probe-path series (E15): the serving pattern of one
// failure event probed many times, per scheme kind × n × f. "per-call" pays
// the full per-query compile (the historical ftc.Connected path), "faultset"
// probes a FaultSet compiled once (lazy closure, pooled scratch, zero allocs
// in the steady state), "session" the eagerly closed view. This is the
// benchmark behind BENCH_query.json (cmd/ftcbench query -json) and the ≥5×
// amortized-speedup acceptance gate of the decoder-side API redesign.
func BenchmarkProbe(b *testing.B) {
	kinds := []struct {
		name   string
		params func(f int) core.Params
	}{
		{"det-netfind", func(f int) core.Params {
			return core.Params{MaxFaults: f, Kind: core.KindDetNetFind}
		}},
		{"rand-rs", func(f int) core.Params {
			return core.Params{MaxFaults: f, Kind: core.KindRandRS, Seed: 17}
		}},
		// Full-support repetitions so whp decode failures cannot abort
		// the measurement loop.
		{"agm-full", func(f int) core.Params {
			return core.Params{MaxFaults: f, Kind: core.KindAGM, Seed: 17, AGMReps: 4 * f * 8}
		}},
	}
	for _, kr := range kinds {
		kr := kr
		for _, n := range []int{256, 1024} {
			n := n
			g := benchGraph(n, int64(n))
			for _, f := range []int{2, 3, 4} {
				f := f
				// The cell's scheme is built inside the named b.Run so
				// that -bench filters skip the construction cost of
				// non-matching cells.
				b.Run(kr.name+"/n="+itoa(n)+"/f="+itoa(f), func(b *testing.B) {
					s, err := core.Build(g, kr.params(f))
					if err != nil {
						b.Fatal(err)
					}
					rng := rand.New(rand.NewSource(23))
					faults := workload.TreeEdgeFaults(g, s.Forest, f, rng)
					fl := make([]core.EdgeLabel, len(faults))
					for i, e := range faults {
						fl[i] = s.EdgeLabel(e)
					}
					b.Run("per-call", func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							if _, err := core.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N()), fl); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.Run("faultset", func(b *testing.B) {
						fs, err := core.CompileFaults(fl)
						if err != nil {
							b.Fatal(err)
						}
						// Warm the component closure so the loop measures
						// the steady state the acceptance gate is about.
						if _, err := fs.Connected(s.VertexLabel(0), s.VertexLabel(1)); err != nil {
							b.Fatal(err)
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := fs.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N())); err != nil {
								b.Fatal(err)
							}
						}
					})
					b.Run("session", func(b *testing.B) {
						fs, err := core.CompileFaults(fl)
						if err != nil {
							b.Fatal(err)
						}
						sess, err := fs.Session()
						if err != nil {
							b.Fatal(err)
						}
						b.ReportAllocs()
						b.ResetTimer()
						for i := 0; i < b.N; i++ {
							if _, err := sess.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*7)%g.N())); err != nil {
								b.Fatal(err)
							}
						}
					})
				})
			}
		}
	}
}

// BenchmarkFig1AuxTransform measures the §3.2 auxiliary-graph transform
// (the Figure 1 construction) at scale.
func BenchmarkFig1AuxTransform(b *testing.B) {
	g := benchGraph(2048, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.NewAuxView(g)
	}
}

// BenchmarkFig2Embedding measures the Euler-tour embedding (Figure 2) plus
// one NetFind hierarchy level on it.
func BenchmarkFig2Embedding(b *testing.B) {
	g := benchGraph(2048, 7)
	view := core.NewAuxView(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = core.NewAuxView(g)
	}
	b.ReportMetric(float64(len(view.Points)), "points")
}

// BenchmarkLabelSizeVsN records the E4 scaling series: max edge label bits
// as n grows (fixed f=2).
func BenchmarkLabelSizeVsN(b *testing.B) {
	for _, n := range []int{128, 256, 512, 1024} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			g := benchGraph(n, int64(n))
			var bits int
			for i := 0; i < b.N; i++ {
				s, err := core.Build(g, core.Params{MaxFaults: 2})
				if err != nil {
					b.Fatal(err)
				}
				bits = s.MaxEdgeLabelBits()
			}
			b.ReportMetric(float64(bits), "edgebits")
			b.ReportMetric(float64(bits)/math.Pow(math.Log2(float64(g.M())), 3), "bits/log³m")
		})
	}
}

// BenchmarkLabelSizeVsF records the E4 series in f (fixed n).
func BenchmarkLabelSizeVsF(b *testing.B) {
	g := benchGraph(256, 99)
	for _, f := range []int{1, 2, 4, 8} {
		f := f
		b.Run(itoa(f), func(b *testing.B) {
			var bits int
			for i := 0; i < b.N; i++ {
				s, err := core.Build(g, core.Params{MaxFaults: f})
				if err != nil {
					b.Fatal(err)
				}
				bits = s.MaxEdgeLabelBits()
			}
			b.ReportMetric(float64(bits), "edgebits")
			b.ReportMetric(float64(bits)/float64(f*f), "bits/f²")
		})
	}
}

// BenchmarkQueryVsF records the E5 series: decode time as |F| grows, for
// the fast (§7.6) and basic (§7.2) algorithms.
func BenchmarkQueryVsF(b *testing.B) {
	g := benchGraph(512, 11)
	const budget = 8
	s, err := core.Build(g, core.Params{MaxFaults: budget})
	if err != nil {
		b.Fatal(err)
	}
	forest := s.Forest
	rng := rand.New(rand.NewSource(12))
	for _, fs := range []int{1, 2, 4, 8} {
		fs := fs
		faults := workload.TreeEdgeFaults(g, forest, fs, rng)
		fl := make([]core.EdgeLabel, len(faults))
		for j, e := range faults {
			fl[j] = s.EdgeLabel(e)
		}
		b.Run("fast/F="+itoa(fs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*13)%g.N()), fl); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("basic/F="+itoa(fs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.ConnectedBasic(s.VertexLabel(i%g.N()), s.VertexLabel((i*13)%g.N()), fl); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConstructVsM records the E6 construction-time series.
func BenchmarkConstructVsM(b *testing.B) {
	for _, n := range []int{128, 256, 512} {
		n := n
		b.Run(itoa(n), func(b *testing.B) {
			g := benchGraph(n, int64(3*n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.Build(g, core.Params{MaxFaults: 2}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(g.M()), "edges")
		})
	}
}

// BenchmarkAdaptiveDecode measures the adaptive prefix path (Appendix B,
// E13) end to end: one-shot queries with a single fault against labels
// built for f=8, so every decode starts from a small prefix budget. The
// contrast with full-threshold decoding, and with a failed prefix plus
// its full-K retry, is rs.BenchmarkDecode's budget=t, budget=K and
// budget<t.
func BenchmarkAdaptiveDecode(b *testing.B) {
	g := benchGraph(512, 21)
	s, err := core.Build(g, core.Params{MaxFaults: 8})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	faults := workload.TreeEdgeFaults(g, s.Forest, 1, rng)
	fl := []core.EdgeLabel{s.EdgeLabel(faults[0])}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Connected(s.VertexLabel(i%g.N()), s.VertexLabel((i*3)%g.N()), fl); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistanceLabeling measures the Corollary 1 oracle (E8): build
// cost amortized into setup, per-op query, bounds quality as metrics.
func BenchmarkDistanceLabeling(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	g := workload.ErdosRenyi(96, 0.1, true, rng)
	workload.AssignRandomWeights(g, 100, rng)
	const f, kappa = 2, 2
	s, err := distlabel.Build(g, distlabel.Params{MaxFaults: f, Kappa: kappa})
	if err != nil {
		b.Fatal(err)
	}
	vb, eb := s.LabelBits()
	b.ReportMetric(float64(vb), "vertbits")
	b.ReportMetric(float64(eb), "edgebits")
	faults := workload.RandomFaults(g, f, rng)
	fl := make([]distlabel.EdgeLabel, len(faults))
	for i, e := range faults {
		fl[i] = s.EdgeLabel(e)
	}
	sv := s.VertexLabel(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tv := s.VertexLabel(1 + i%(g.N()-1))
		if _, err := distlabel.Query(sv, tv, fl, g.N(), kappa); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouting measures the Corollary 2 scheme (E9): per-op plan+deliver
// cost with stretch and table sizes as metrics.
func BenchmarkRouting(b *testing.B) {
	g := workload.Grid(10, 10)
	const f = 2
	net, err := routing.Build(g, f)
	if err != nil {
		b.Fatal(err)
	}
	total, maxLocal := net.TableBits()
	b.ReportMetric(float64(total), "tablebits")
	b.ReportMetric(float64(maxLocal), "maxlocalbits")
	rng := rand.New(rand.NewSource(41))
	faults := workload.RandomFaults(g, f, rng)
	var hops, opt float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, d := i%g.N(), (i*37+13)%g.N()
		path, ok, err := net.Route(s, d, faults)
		if err != nil {
			b.Fatal(err)
		}
		if ok && s != d {
			hops += float64(len(path) - 1)
			opt += float64(graph.HopDistancesUnder(g, workload.FaultSet(faults), s)[d])
		}
	}
	b.StopTimer()
	if opt > 0 {
		b.ReportMetric(hops/opt, "stretch")
	}
}

// BenchmarkCongestRounds measures the Theorem 3 construction (E10): rounds
// are the metric; wall time is incidental.
func BenchmarkCongestRounds(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid12x12", workload.Grid(12, 12)},
		{"er192", benchGraph(192, 51)},
	} {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			var rep *congest.ConstructionReport
			for i := 0; i < b.N; i++ {
				n := congest.NewNet(tc.g)
				var err error
				rep, _, _, _, err = congest.BuildLabels(n, 0, 16)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(rep.TotalRounds), "rounds")
			b.ReportMetric(math.Sqrt(float64(tc.g.M()))*float64(rep.Depth), "sqrtM*D")
		})
	}
}

// BenchmarkRandHierarchy measures the Proposition 5 construction (E12).
func BenchmarkRandHierarchy(b *testing.B) {
	g := benchGraph(1024, 61)
	s, err := core.Build(g, core.Params{MaxFaults: 3, Kind: core.KindRandRS, Seed: 62})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(s.Spec().Levels), "depth")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Build(g, core.Params{MaxFaults: 3, Kind: core.KindRandRS, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
