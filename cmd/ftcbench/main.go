// Command ftcbench regenerates every table and figure of the paper's
// evaluation as measurements (see DESIGN.md §4 for the experiment index):
//
//	ftcbench table1     — E1: the scheme-comparison table (label size,
//	                      query time, correctness regime, construction time)
//	ftcbench labelsize  — E4: label-size scaling vs n and vs f
//	ftcbench query      — E5: query time vs |F| (fast vs basic, adaptive)
//	                      + E15: the probe-path grid (per-call vs FaultSet)
//	ftcbench construct  — E6: construction time vs m and f
//	ftcbench support    — E7: full-query-support stress (error counts)
//	ftcbench distance   — E8: Corollary 1 bounds quality and stretch
//	ftcbench routing    — E9: Corollary 2 delivery, stretch, table sizes
//	ftcbench congest    — E10: Theorem 3 round counts vs √m·D + f²
//	ftcbench hierarchy  — E11/E12: ε-net and hierarchy quality
//	ftcbench ablation   — the threshold-multiplier and AGM-repetition sweeps
//	ftcbench build      — E14: construction hot-path grid (kind × n × f)
//	ftcbench update     — E17: dynamic network updates (incremental commit
//	                      vs full rebuild)
//	ftcbench chaos      — E22: deterministic fault injection over the full
//	                      tier (conn resets, snapshot failures, a replica
//	                      kill/restart) with every answer verified against
//	                      a per-generation oracle
//	ftcbench binsmoke   — CI gate: drive a live ftcserve's binary listener
//	                      (FTCSERVE_HTTP / FTCSERVE_BIN env) with pipelined
//	                      probes and verify the /metrics counters moved
//	ftcbench frontsmoke — CI gate: fan hedged probes across a live replica
//	                      fleet (FTC_FRONT_REPLICAS env, comma-separated bin
//	                      addresses) and cross-check answers against the
//	                      primary's JSON surface (FTCSERVE_HTTP)
//	ftcbench all        — the measurement sections, table1 through update
//	                      (the default)
//
// The serving tier (both protocol surfaces, the fault-set cache,
// replication, hedging) is measured by the repository benchmark instead:
// `bash perfbench/run.sh` (see BENCHMARK.json).
//
// Flags may come before or after the section name:
//
//	-json    also write the section's record: BENCH_build.json (build),
//	         BENCH_query.json (query), BENCH_update.json (update), or the
//	         chaos_seedN key of BENCH_serve.json (chaos)
//	-smoke   shrink the chaos schedule so CI can run it in seconds
//	-seed N  the chaos schedule's seed (default 1)
//
// All randomness is seeded; output is deterministic modulo wall-clock
// timings.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"time"

	ftc "repro"
	"repro/internal/congest"
	"repro/internal/core"
	"repro/internal/distlabel"
	"repro/internal/epsnet"
	"repro/internal/euler"
	"repro/internal/graph"
	"repro/internal/hierarchy"
	"repro/internal/ptsketch"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/serve/front"
	"repro/internal/serve/wire"
	"repro/internal/serve/wireclient"
	"repro/internal/workload"
)

// sections maps each section name to its runner.
var sections = map[string]func(){
	"table1":     table1,
	"labelsize":  labelSize,
	"query":      queryTime,
	"construct":  constructTime,
	"support":    support,
	"distance":   distance,
	"routing":    routingBench,
	"congest":    congestBench,
	"hierarchy":  hierarchyBench,
	"ablation":   ablation,
	"build":      buildGrid,
	"update":     updateBench,
	"binsmoke":   binSmoke,
	"frontsmoke": frontSmoke,
	"chaos":      chaosBench,
}

// allSections is what `ftcbench all` runs, in order.
var allSections = []string{"table1", "labelsize", "query", "construct", "support", "distance", "routing", "congest", "hierarchy", "ablation", "build", "update"}

func main() {
	section, opts, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftcbench: %v\n%s\n", err, usage())
		os.Exit(2)
	}
	jsonOut, smokeMode, chaosSeed = opts.json, opts.smoke, opts.seed
	if section != "all" {
		sections[section]()
		return
	}
	for _, name := range allSections {
		sections[name]()
		fmt.Println()
	}
}

// options are the flags every section shares.
type options struct {
	json, smoke bool
	seed        int64
}

// parseArgs reads the flags and the optional section name (default
// "all"). Flags may come before or after the section, so both
// `ftcbench -json build` and `ftcbench chaos -smoke -seed 2` work.
func parseArgs(args []string) (string, options, error) {
	var opts options
	fs := flag.NewFlagSet("ftcbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	fs.BoolVar(&opts.json, "json", false, "also write the section's BENCH_*.json record")
	fs.BoolVar(&opts.smoke, "smoke", false, "shrink the chaos schedule for CI")
	fs.Int64Var(&opts.seed, "seed", 1, "chaos schedule seed")
	if err := fs.Parse(args); err != nil {
		return "", opts, err
	}
	section := "all"
	if fs.NArg() > 0 {
		section = fs.Arg(0)
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return "", opts, err
		}
		if fs.NArg() > 0 {
			return "", opts, fmt.Errorf("unexpected argument %q after section %q", fs.Arg(0), section)
		}
	}
	if _, ok := sections[section]; !ok && section != "all" {
		return "", opts, fmt.Errorf("unknown section %q", section)
	}
	return section, opts, nil
}

func usage() string {
	return "usage: ftcbench [-json] [-smoke] [-seed N] [" + strings.Join(slices.Sorted(maps.Keys(sections)), "|") + "|all]"
}

// jsonOut makes a section also write its BENCH_*.json record.
var jsonOut bool

// smokeMode shrinks the chaos schedule so CI can run it in seconds.
var smokeMode bool

// ---------------------------------------------------------------- table1

// table1 reproduces Table 1: one measured row per scheme on a common
// workload. Paper columns: label size, query time, Det./Rand., correctness,
// construction.
func table1() {
	const (
		n    = 300
		p    = 0.06
		f    = 3
		seed = 42
	)
	rng := rand.New(rand.NewSource(seed))
	g := workload.ErdosRenyi(n, p, true, rng)
	forest := graph.SpanningForest(g)
	fmt.Printf("E1 / Table 1 — scheme comparison (ER n=%d m=%d, f=%d, 2000 queries)\n", n, g.M(), f)
	fmt.Printf("%-22s %12s %12s %10s %12s %12s %8s\n",
		"scheme", "edge-bits", "vert-bits", "build", "query", "basic-query", "errors")

	type queryCase struct {
		s, t   int
		faults []int
	}
	cases := make([]queryCase, 0, 2000)
	qrng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		var faults []int
		if i%2 == 0 {
			faults = workload.TreeEdgeFaults(g, forest, 1+qrng.Intn(f), qrng)
		} else {
			faults = workload.RandomFaults(g, 1+qrng.Intn(f), qrng)
		}
		cases = append(cases, queryCase{s: qrng.Intn(n), t: qrng.Intn(n), faults: faults})
	}

	runCore := func(name string, params core.Params) {
		t0 := time.Now()
		s, err := core.Build(g, params)
		if err != nil {
			fmt.Printf("%-22s build error: %v\n", name, err)
			return
		}
		build := time.Since(t0)
		var wrong, failed int
		t1 := time.Now()
		for _, c := range cases {
			fl := make([]core.EdgeLabel, len(c.faults))
			for i, e := range c.faults {
				fl[i] = s.EdgeLabel(e)
			}
			got, err := core.Connected(s.VertexLabel(c.s), s.VertexLabel(c.t), fl)
			if err != nil {
				failed++
				continue
			}
			if got != graph.ConnectedUnder(g, workload.FaultSet(c.faults), c.s, c.t) {
				wrong++
			}
		}
		fast := time.Since(t1) / time.Duration(len(cases))
		t2 := time.Now()
		for _, c := range cases[:400] {
			fl := make([]core.EdgeLabel, len(c.faults))
			for i, e := range c.faults {
				fl[i] = s.EdgeLabel(e)
			}
			_, _ = core.ConnectedBasic(s.VertexLabel(c.s), s.VertexLabel(c.t), fl)
		}
		basic := time.Since(t2) / 400
		fmt.Printf("%-22s %12d %12d %10s %12s %12s %4d/%d\n",
			name, s.MaxEdgeLabelBits(), core.VertexLabelBits,
			round(build), round(fast), round(basic), wrong+failed, len(cases))
	}

	runPT := func(name string, params ptsketch.Params) {
		t0 := time.Now()
		s, err := ptsketch.Build(g, params)
		if err != nil {
			fmt.Printf("%-22s build error: %v\n", name, err)
			return
		}
		build := time.Since(t0)
		var wrong, failed int
		t1 := time.Now()
		for _, c := range cases {
			fl := make([]ptsketch.EdgeLabel, len(c.faults))
			for i, e := range c.faults {
				fl[i] = s.EdgeLabel(e)
			}
			got, err := ptsketch.Connected(s.VertexLabel(c.s), s.VertexLabel(c.t), fl)
			if err != nil {
				failed++
				continue
			}
			if got != graph.ConnectedUnder(g, workload.FaultSet(c.faults), c.s, c.t) {
				wrong++
			}
		}
		dur := time.Since(t1) / time.Duration(len(cases))
		fmt.Printf("%-22s %12d %12d %10s %12s %12s %4d/%d\n",
			name, s.LabelBits(), 96, round(build), round(dur), "-", wrong+failed, len(cases))
	}

	runPT("DP21-1 (whp)", ptsketch.Params{MaxFaults: f, Seed: 1})
	runPT("DP21-1 (full)", ptsketch.Params{MaxFaults: f, Seed: 1, Full: true})
	runCore("DP21-2 agm (whp)", core.Params{MaxFaults: f, Kind: core.KindAGM, Seed: 2})
	runCore("DP21-2 agm (full)", core.Params{MaxFaults: f, Kind: core.KindAGM, Seed: 2, AGMReps: 4 * f * 9})
	runCore("ours rand-rs", core.Params{MaxFaults: f, Kind: core.KindRandRS, Seed: 3})
	runCore("ours det-netfind", core.Params{MaxFaults: f, Kind: core.KindDetNetFind})
	fmt.Println("\n(det rows are deterministic/full support by construction; error column counts")
	fmt.Println(" wrong answers + decode failures over the 2000 queries — expected 0 except AGM-whp)")
}

// ------------------------------------------------------------- labelsize

func labelSize() {
	fmt.Println("E4 / Theorems 1-2 — label size scaling")
	fmt.Printf("%-28s %8s %8s %14s %14s %10s\n", "graph", "f", "k", "edge-bits", "vert-bits", "levels")
	show := func(tag string, g *graph.Graph, f int, kind core.Kind) {
		s, err := core.Build(g, core.Params{MaxFaults: f, Kind: kind, Seed: 9})
		if err != nil {
			fmt.Printf("%-28s error: %v\n", tag, err)
			return
		}
		fmt.Printf("%-28s %8d %8d %14d %14d %10d\n",
			tag, f, s.Spec().K, s.MaxEdgeLabelBits(),
			core.VertexLabelBits, s.Spec().Levels)
	}
	fmt.Println(" deterministic scheme, n sweep (f=2, ER p=8/n):")
	for _, n := range []int{64, 128, 256, 512, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
		show(fmt.Sprintf("  er n=%d m=%d", n, g.M()), g, 2, core.KindDetNetFind)
	}
	fmt.Println(" deterministic scheme, f sweep (n=256):")
	rng := rand.New(rand.NewSource(77))
	g := workload.ErdosRenyi(256, 0.05, true, rng)
	for _, f := range []int{1, 2, 3, 4, 6, 8} {
		show(fmt.Sprintf("  er n=256 f=%d", f), g, f, core.KindDetNetFind)
	}
	fmt.Println(" randomized scheme (smaller k = O(f log n)), f sweep (n=256):")
	for _, f := range []int{1, 2, 4, 8} {
		show(fmt.Sprintf("  er n=256 f=%d", f), g, f, core.KindRandRS)
	}
}

// ------------------------------------------------------------- queryTime

func queryTime() {
	fmt.Println("E5 / Theorem 1 + E13 / Appendix B — query time vs |F|")
	const n, f = 400, 8
	rng := rand.New(rand.NewSource(11))
	g := workload.ErdosRenyi(n, 0.04, true, rng)
	forest := graph.SpanningForest(g)
	for _, kindRow := range []struct {
		name string
		kind core.Kind
	}{
		{"det-netfind", core.KindDetNetFind},
		{"rand-rs", core.KindRandRS},
	} {
		s, err := core.Build(g, core.Params{MaxFaults: f, Kind: kindRow.kind, Seed: 5})
		if err != nil {
			fmt.Printf("  %s: %v\n", kindRow.name, err)
			continue
		}
		fmt.Printf(" %s (k=%d):\n", kindRow.name, s.Spec().K)
		fmt.Printf("   %4s %14s %14s\n", "|F|", "fast-query", "basic-query")
		for _, fs := range []int{1, 2, 4, 8} {
			var cases [][]int
			for i := 0; i < 60; i++ {
				cases = append(cases, workload.TreeEdgeFaults(g, forest, fs, rng))
			}
			measure := func(fn func(a, b core.VertexLabel, fl []core.EdgeLabel) (bool, error)) time.Duration {
				t0 := time.Now()
				count := 0
				for _, faults := range cases {
					fl := make([]core.EdgeLabel, len(faults))
					for i, e := range faults {
						fl[i] = s.EdgeLabel(e)
					}
					for q := 0; q < 5; q++ {
						sv, tv := rng.Intn(n), rng.Intn(n)
						if _, err := fn(s.VertexLabel(sv), s.VertexLabel(tv), fl); err != nil {
							panic(err)
						}
						count++
					}
				}
				return time.Since(t0) / time.Duration(count)
			}
			fast := measure(core.Connected)
			basic := measure(core.ConnectedBasic)
			fmt.Printf("   %4d %14s %14s\n", fs, round(fast), round(basic))
		}
	}
	fmt.Println(" (adaptive prefix decoding: per-query cost grows with |F|, not with the f=8 budget)")
	fmt.Println()
	probeGrid()
}

// queryRecord is one cell of the probe-path grid (E15). per_call_ns_per_op
// is the historical serving cost (every probe re-validates, re-deduplicates,
// and re-compiles the fault slice — the only decoder path before the
// FaultSet redesign); probe_ns_per_op is the steady-state cost against the
// FaultSet compiled once.
type queryRecord struct {
	Scheme    string  `json:"scheme"`
	N         int     `json:"n"`
	M         int     `json:"m"`
	F         int     `json:"f"`
	PerCallNs int64   `json:"per_call_ns_per_op"`
	ProbeNs   int64   `json:"probe_ns_per_op"`
	CompileNs int64   `json:"compile_ns"`
	Speedup   float64 `json:"amortized_speedup"`
}

// probeGrid measures the probe path across the scheme × n × f grid (E15)
// and, with -json, writes BENCH_query.json for PR-over-PR tracking.
func probeGrid() {
	fmt.Println("E15 — probe path: per-call decode vs compiled FaultSet (seeded graphs p=8/n)")
	fmt.Printf("   %-12s %6s %6s %3s %12s %12s %12s %10s\n",
		"scheme", "n", "m", "f", "per-call", "probe", "compile", "speedup")
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
		{"agm-full", func(f int) core.Params {
			return core.Params{MaxFaults: f, Kind: core.KindAGM, Seed: 17, AGMReps: 4 * f * 8}
		}},
	}
	var records []queryRecord
	for _, kr := range kinds {
		for _, n := range []int{256, 1024, 4096} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
			for _, f := range []int{2, 3, 4} {
				s, err := core.Build(g, kr.params(f))
				if err != nil {
					fmt.Fprintf(os.Stderr, "ftcbench: build %s n=%d f=%d: %v\n", kr.name, n, f, err)
					os.Exit(1)
				}
				faults := workload.TreeEdgeFaults(g, s.Forest, f, rng)
				fl := make([]core.EdgeLabel, len(faults))
				for i, e := range faults {
					fl[i] = s.EdgeLabel(e)
				}
				const perCallOps = 2000
				t0 := time.Now()
				for i := 0; i < perCallOps; i++ {
					if _, err := core.Connected(s.VertexLabel(i%n), s.VertexLabel((i*7)%n), fl); err != nil {
						fmt.Fprintf(os.Stderr, "ftcbench: per-call probe: %v\n", err)
						os.Exit(1)
					}
				}
				perCall := time.Since(t0) / perCallOps
				t1 := time.Now()
				fs, err := core.CompileFaults(fl)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ftcbench: CompileFaults: %v\n", err)
					os.Exit(1)
				}
				if _, err := fs.Connected(s.VertexLabel(0), s.VertexLabel(1)); err != nil {
					fmt.Fprintf(os.Stderr, "ftcbench: closure: %v\n", err)
					os.Exit(1)
				}
				compile := time.Since(t1)
				const probeOps = 2_000_000
				t2 := time.Now()
				for i := 0; i < probeOps; i++ {
					if _, err := fs.Connected(s.VertexLabel(i%n), s.VertexLabel((i*7)%n)); err != nil {
						fmt.Fprintf(os.Stderr, "ftcbench: probe: %v\n", err)
						os.Exit(1)
					}
				}
				probe := time.Since(t2) / probeOps
				rec := queryRecord{
					Scheme:    kr.name,
					N:         n,
					M:         g.M(),
					F:         f,
					PerCallNs: perCall.Nanoseconds(),
					ProbeNs:   probe.Nanoseconds(),
					CompileNs: compile.Nanoseconds(),
					Speedup:   float64(perCall.Nanoseconds()) / float64(probe.Nanoseconds()),
				}
				records = append(records, rec)
				fmt.Printf("   %-12s %6d %6d %3d %12s %12s %12s %9.0fx\n",
					rec.Scheme, rec.N, rec.M, rec.F, round(perCall), round(probe), round(compile), rec.Speedup)
			}
		}
	}
	fmt.Println("   (per-call re-compiles the fault slice every probe; probe is the steady state")
	fmt.Println("    against a FaultSet compiled once — the \"one failure event, many probes\" pattern)")
	if !jsonOut {
		return
	}
	doc := struct {
		Benchmark string        `json:"benchmark"`
		Note      string        `json:"note"`
		Results   []queryRecord `json:"results"`
	}{
		Benchmark: "FaultSet.Connected",
		Note: "per_call_ns_per_op is the pre-redesign serving cost (core.Connected compiles a " +
			"throwaway fault set on every probe); probe_ns_per_op is the amortized steady state " +
			"against a FaultSet compiled once (compile_ns, including the first-probe closure). " +
			"Regenerated by `ftcbench query -json`. Wall times on shared hardware are noisy — " +
			"compare like-for-like runs.",
		Results: records,
	}
	writeBenchJSON("BENCH_query.json", doc)
}

// ----------------------------------------------------------- constructTime

func constructTime() {
	fmt.Println("E6 / Theorem 1 — construction time scaling (det-netfind)")
	fmt.Printf("   %8s %8s %4s %12s\n", "n", "m", "f", "build")
	for _, n := range []int{128, 256, 512, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
		t0 := time.Now()
		if _, err := core.Build(g, core.Params{MaxFaults: 2}); err != nil {
			fmt.Printf("   n=%d: %v\n", n, err)
			continue
		}
		fmt.Printf("   %8d %8d %4d %12s\n", n, g.M(), 2, round(time.Since(t0)))
	}
	rng := rand.New(rand.NewSource(123))
	g := workload.ErdosRenyi(256, 0.06, true, rng)
	for _, f := range []int{1, 2, 4, 8} {
		t0 := time.Now()
		if _, err := core.Build(g, core.Params{MaxFaults: f}); err != nil {
			fmt.Printf("   f=%d: %v\n", f, err)
			continue
		}
		fmt.Printf("   %8d %8d %4d %12s\n", 256, g.M(), f, round(time.Since(t0)))
	}
}

// ---------------------------------------------------------------- support

func support() {
	fmt.Println("E7 — full query support stress (deterministic scheme, ground-truth check)")
	rng := rand.New(rand.NewSource(13))
	totalQueries, errors := 0, 0
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(120)
		g := workload.ErdosRenyi(n, 0.05+rng.Float64()*0.1, true, rng)
		f := 1 + rng.Intn(5)
		s, err := core.Build(g, core.Params{MaxFaults: f})
		if err != nil {
			fmt.Printf("   build error: %v\n", err)
			return
		}
		forest := s.Forest
		for q := 0; q < 200; q++ {
			var faults []int
			switch q % 3 {
			case 0:
				faults = workload.TreeEdgeFaults(g, forest, rng.Intn(f+1), rng)
			case 1:
				faults = workload.RandomFaults(g, rng.Intn(f+1), rng)
			default:
				faults = workload.VertexCutFaults(g, f, rng)
			}
			sv, tv := rng.Intn(n), rng.Intn(n)
			fl := make([]core.EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = s.EdgeLabel(e)
			}
			got, err := core.Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			totalQueries++
			if err != nil || got != graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv) {
				errors++
			}
		}
	}
	fmt.Printf("   %d randomized trials × 200 queries: %d/%d incorrect\n", 20, errors, totalQueries)
}

// --------------------------------------------------------------- distance

func distance() {
	fmt.Println("E8 / Corollary 1 — fault-tolerant approximate distance labeling")
	rng := rand.New(rand.NewSource(17))
	g := workload.ErdosRenyi(120, 0.08, true, rng)
	workload.AssignRandomWeights(g, 200, rng)
	const f, kappa = 2, 2
	t0 := time.Now()
	s, err := distlabel.Build(g, distlabel.Params{MaxFaults: f, Kappa: kappa})
	if err != nil {
		fmt.Printf("   build: %v\n", err)
		return
	}
	vb, eb := s.LabelBits()
	fmt.Printf("   n=%d m=%d f=%d κ=%d: %d scales, build %s, vertex label %d bits, max edge label %d bits\n",
		g.N(), g.M(), f, kappa, s.Scales(), round(time.Since(t0)), vb, eb)
	var ratios []float64
	var bottleneckOK, boundsOK, total int
	for q := 0; q < 400; q++ {
		faults := workload.RandomFaults(g, rng.Intn(f+1), rng)
		set := workload.FaultSet(faults)
		sv, tv := rng.Intn(g.N()), rng.Intn(g.N())
		if sv == tv {
			continue
		}
		fl := make([]distlabel.EdgeLabel, len(faults))
		for i, e := range faults {
			fl[i] = s.EdgeLabel(e)
		}
		res, err := distlabel.Query(s.VertexLabel(sv), s.VertexLabel(tv), fl, g.N(), kappa)
		if err != nil {
			fmt.Printf("   query error: %v\n", err)
			return
		}
		if !res.Connected {
			continue
		}
		total++
		bottleneck := graph.BottleneckDistanceUnder(g, set, sv, tv)
		dist := graph.WeightedDistancesUnder(g, set, sv)[tv]
		if res.BottleneckLower <= bottleneck && bottleneck <= res.BottleneckUpper {
			bottleneckOK++
		}
		if res.DistanceLower <= dist && dist <= res.DistanceUpper {
			boundsOK++
		}
		ratios = append(ratios, float64(res.Scale)/float64(bottleneck))
	}
	fmt.Printf("   bottleneck bracket held %d/%d; distance bracket held %d/%d\n",
		bottleneckOK, total, boundsOK, total)
	fmt.Printf("   scale/bottleneck ratio: median %.2f, p95 %.2f (guarantee ≤ %d)\n",
		percentile(ratios, 0.5), percentile(ratios, 0.95), 2*(2*kappa-1))
}

// ---------------------------------------------------------------- routing

func routingBench() {
	fmt.Println("E9 / Corollary 2 — forbidden-set compact routing")
	rng := rand.New(rand.NewSource(19))
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid 10x10", workload.Grid(10, 10)},
		{"er n=100", workload.ErdosRenyi(100, 0.08, true, rng)},
	} {
		const f = 3
		net, err := routing.Build(tc.g, f)
		if err != nil {
			fmt.Printf("   %s: %v\n", tc.name, err)
			continue
		}
		total, maxLocal := net.TableBits()
		var stretches []float64
		delivered, reachable := 0, 0
		for q := 0; q < 300; q++ {
			faults := workload.RandomFaults(tc.g, rng.Intn(f+1), rng)
			set := workload.FaultSet(faults)
			s, d := rng.Intn(tc.g.N()), rng.Intn(tc.g.N())
			if s == d {
				continue
			}
			want := graph.ConnectedUnder(tc.g, set, s, d)
			path, ok, err := net.Route(s, d, faults)
			if err != nil {
				fmt.Printf("   %s: routing error: %v\n", tc.name, err)
				return
			}
			if ok != want {
				fmt.Printf("   %s: reachability mismatch\n", tc.name)
				return
			}
			if !want {
				continue
			}
			reachable++
			delivered++
			opt := graph.HopDistancesUnder(tc.g, set, s)[d]
			if opt > 0 {
				stretches = append(stretches, float64(len(path)-1)/float64(opt))
			}
		}
		fmt.Printf("   %-12s delivered %d/%d, stretch median %.2f p95 %.2f max %.2f, tables: total %d bits, max local %d bits\n",
			tc.name, delivered, reachable,
			percentile(stretches, 0.5), percentile(stretches, 0.95), percentile(stretches, 1.0),
			total, maxLocal)
	}
}

// ---------------------------------------------------------------- congest

func congestBench() {
	fmt.Println("E10 / Theorem 3 — CONGEST construction rounds (measured vs √m·D + f² shape)")
	fmt.Printf("   %-14s %6s %6s %5s %8s %8s %8s %8s %8s %10s\n",
		"graph", "n", "m", "D", "bfs", "sizes", "anc", "netfind", "sketch", "√m·D+f²")
	run := func(name string, g *graph.Graph, sketchChunks int) {
		net := congest.NewNet(g)
		rep, _, _, _, err := congest.BuildLabels(net, 0, sketchChunks)
		if err != nil {
			fmt.Printf("   %s: %v\n", name, err)
			return
		}
		bound := int(math.Sqrt(float64(g.M()))*float64(rep.Depth)) + sketchChunks
		fmt.Printf("   %-14s %6d %6d %5d %8d %8d %8d %8d %8d %10d\n",
			name, g.N(), g.M(), rep.Depth, rep.BFSRounds, rep.SizeRounds,
			rep.AncestryRounds, rep.HierarchyRounds, rep.SketchRounds, bound)
	}
	rng := rand.New(rand.NewSource(23))
	run("grid 8x8", workload.Grid(8, 8), 16)
	run("grid 16x16", workload.Grid(16, 16), 16)
	run("er n=128", workload.ErdosRenyi(128, 0.06, true, rng), 16)
	run("er n=256", workload.ErdosRenyi(256, 0.04, true, rng), 16)
	run("torus 12x12", workload.Torus(12, 12), 16)
}

// --------------------------------------------------------------- hierarchy

func hierarchyBench() {
	fmt.Println("E11 / Lemma 12 — NetFind ε-net quality")
	rng := rand.New(rand.NewSource(29))
	fmt.Printf("   %8s %10s %12s %12s\n", "|P|", "net size", "bound", "threshold")
	for _, n := range []int{500, 2000, 8000} {
		pts := make([]euler.Point, n)
		for i := range pts {
			pts[i] = euler.Point{X: rng.Int31n(int32(4 * n)), Y: rng.Int31n(int32(4 * n)), Edge: i}
		}
		net := epsnet.NetFind(n, pts)
		bound := float64(n) / 2
		fmt.Printf("   %8d %10d %12.0f %12d\n", n, len(net), bound, epsnet.NetFindThreshold(n))
	}
	fmt.Println("E12 / Proposition 5 — hierarchy depth and goodness (sampled)")
	g := workload.ErdosRenyi(200, 0.15, true, rng)
	forest := graph.SpanningForest(g)
	tour := euler.Build(forest)
	pts := euler.EmbedNonTree(g, forest, tour)
	const f = 3
	kDet := hierarchy.DefaultThreshold(f, g.M())
	kRand := hierarchy.SamplingThreshold(f, g.N())
	det := hierarchy.BuildNetFind(pts, kDet)
	rnd := hierarchy.BuildSampling(pts, kRand, rng)
	fmt.Printf("   det-netfind: depth %d (k=%d); sampling: depth %d (k=%d); non-tree edges %d\n",
		det.Depth(), kDet, rnd.Depth(), kRand, len(pts))
}

// --------------------------------------------------------------- ablation

// ablation sweeps the two design knobs DESIGN.md §3.4 calls out: the
// Reed–Solomon threshold multiplier (label size vs detected-failure rate)
// and the AGM repetition count (the whp→full blow-up of DP21 footnote 4).
func ablation() {
	fmt.Println("Ablation A — practical threshold k = c·f²·⌈log₂m⌉ (det scheme, f=4)")
	fmt.Printf("   %8s %6s %12s %10s %10s\n", "c", "k", "edge-bits", "failures", "wrong")
	rng := rand.New(rand.NewSource(37))
	g := workload.ErdosRenyi(150, 0.15, true, rng)
	const f = 4
	base := hierarchy.DefaultThreshold(f, g.M())
	for _, c := range []float64{0.05, 0.1, 0.25, 0.5, 1.0} {
		c := c
		s, err := core.Build(g, core.Params{
			MaxFaults: f,
			Threshold: func(f, m int) int {
				k := int(c * float64(base))
				if k < 2 {
					k = 2
				}
				return k
			},
		})
		if err != nil {
			fmt.Printf("   c=%.2f: %v\n", c, err)
			continue
		}
		forest := s.Forest
		var failures, wrong int
		qrng := rand.New(rand.NewSource(38))
		for q := 0; q < 500; q++ {
			faults := workload.TreeEdgeFaults(g, forest, 1+qrng.Intn(f), qrng)
			fl := make([]core.EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = s.EdgeLabel(e)
			}
			sv, tv := qrng.Intn(g.N()), qrng.Intn(g.N())
			got, err := core.Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			if err != nil {
				failures++
				continue
			}
			if got != graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv) {
				wrong++
			}
		}
		fmt.Printf("   %8.2f %6d %12d %7d/500 %7d/500\n",
			c, s.Spec().K, s.MaxEdgeLabelBits(), failures, wrong)
	}
	fmt.Println("   (failures are *detected* decode errors; wrong answers must stay 0)")

	fmt.Println("Ablation B — AGM repetitions (whp→full trade-off, f=3)")
	fmt.Printf("   %8s %12s %10s %10s\n", "reps", "edge-bits", "failures", "wrong")
	for _, reps := range []int{2, 4, 8, 16, 48} {
		s, err := core.Build(g, core.Params{MaxFaults: 3, Kind: core.KindAGM, Seed: 40, AGMReps: reps})
		if err != nil {
			fmt.Printf("   reps=%d: %v\n", reps, err)
			continue
		}
		forest := s.Forest
		var failures, wrong int
		qrng := rand.New(rand.NewSource(41))
		for q := 0; q < 500; q++ {
			faults := workload.TreeEdgeFaults(g, forest, 1+qrng.Intn(3), qrng)
			fl := make([]core.EdgeLabel, len(faults))
			for i, e := range faults {
				fl[i] = s.EdgeLabel(e)
			}
			sv, tv := qrng.Intn(g.N()), qrng.Intn(g.N())
			got, err := core.Connected(s.VertexLabel(sv), s.VertexLabel(tv), fl)
			if err != nil {
				failures++
				continue
			}
			if got != graph.ConnectedUnder(g, workload.FaultSet(faults), sv, tv) {
				wrong++
			}
		}
		fmt.Printf("   %8d %12d %7d/500 %7d/500\n",
			reps, s.MaxEdgeLabelBits(), failures, wrong)
	}
}

// ------------------------------------------------------------------ build

// buildRecord is one cell of the construction-perf grid (E14).
type buildRecord struct {
	Scheme   string `json:"scheme"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	F        int    `json:"f"`
	K        int    `json:"k,omitempty"`
	Levels   int    `json:"levels,omitempty"`
	EdgeBits int    `json:"edge_bits"`
	NsPerOp  int64  `json:"ns_per_op"`
}

// baselineRecord is a pre-overhaul measurement kept for trajectory tracking.
type baselineRecord struct {
	Scheme  string `json:"scheme"`
	N       int    `json:"n"`
	F       int    `json:"f"`
	NsPerOp int64  `json:"ns_per_op"`
}

// buildBaselines are the BenchmarkBuild figures measured on the seed
// construction pipeline (per-call gf.Mul window tables, per-level power
// recomputation, map-based slot lookup, dense sequential folding)
// immediately before the hot-path overhaul landed. An interleaved A/B run
// on the same machine put det-netfind n=1024 f=3 at ~166ms pre-overhaul vs
// ~41ms post-overhaul (≈4×).
var buildBaselines = []baselineRecord{
	{Scheme: "det-netfind", N: 256, F: 3, NsPerOp: 33262180},
	{Scheme: "det-netfind", N: 1024, F: 2, NsPerOp: 179000660},
	{Scheme: "det-netfind", N: 1024, F: 3, NsPerOp: 185327198},
	{Scheme: "det-netfind", N: 1024, F: 4, NsPerOp: 262494395},
	{Scheme: "det-netfind", N: 4096, F: 3, NsPerOp: 1005498628},
	{Scheme: "rand-rs", N: 1024, F: 3, NsPerOp: 193113442},
	{Scheme: "agm", N: 1024, F: 3, NsPerOp: 13847690},
}

// buildGrid measures core.Build across the scheme × n × f grid (E14) and,
// with -json, writes BENCH_build.json for PR-over-PR tracking.
func buildGrid() {
	fmt.Println("E14 — construction hot path (best of reps, seeded graphs p=8/n)")
	fmt.Printf("   %-12s %6s %6s %3s %6s %7s %12s %12s\n",
		"scheme", "n", "m", "f", "k", "levels", "edge-bits", "build")
	kinds := []struct {
		name string
		kind core.Kind
		// maxN caps the grid per kind: det-greedy's ε-net construction is
		// polynomial (~3 min per Build already at n=256), so it is tracked
		// at n=96 where a cell is seconds.
		maxN int
	}{
		{"det-netfind", core.KindDetNetFind, 4096},
		{"det-greedy", core.KindDetGreedy, 96},
		{"rand-rs", core.KindRandRS, 4096},
		{"agm", core.KindAGM, 4096},
	}
	var records []buildRecord
	for _, kr := range kinds {
		for _, n := range []int{96, 256, 1024, 4096} {
			if n > kr.maxN || (n == 96 && kr.maxN > 96) {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n)))
			g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
			for _, f := range []int{2, 3, 4} {
				reps := 3
				if n >= 4096 {
					reps = 1
				}
				var best time.Duration
				var s *core.Scheme
				for r := 0; r < reps; r++ {
					t0 := time.Now()
					var err error
					s, err = core.Build(g, core.Params{MaxFaults: f, Kind: kr.kind, Seed: 17})
					if err != nil {
						fmt.Fprintf(os.Stderr, "ftcbench: build %s n=%d f=%d: %v\n", kr.name, n, f, err)
						os.Exit(1)
					}
					if d := time.Since(t0); r == 0 || d < best {
						best = d
					}
				}
				rec := buildRecord{
					Scheme:   kr.name,
					N:        n,
					M:        g.M(),
					F:        f,
					K:        s.Spec().K,
					Levels:   s.Spec().Levels,
					EdgeBits: s.MaxEdgeLabelBits(),
					NsPerOp:  best.Nanoseconds(),
				}
				records = append(records, rec)
				fmt.Printf("   %-12s %6d %6d %3d %6d %7d %12d %12s\n",
					rec.Scheme, rec.N, rec.M, rec.F, rec.K, rec.Levels, rec.EdgeBits, round(best))
			}
		}
	}
	if !jsonOut {
		return
	}
	doc := struct {
		Benchmark string           `json:"benchmark"`
		Note      string           `json:"note"`
		Baseline  []baselineRecord `json:"baseline_pre_overhaul"`
		Results   []buildRecord    `json:"results"`
	}{
		Benchmark: "core.Build",
		Note: "baseline_pre_overhaul rows were measured on the seed pipeline before the " +
			"cached-kernel/power-arena/parallel-folding overhaul; results rows are " +
			"regenerated by `ftcbench build -json`. Wall times on shared hardware are " +
			"noisy — compare like-for-like runs.",
		Baseline: buildBaselines,
		Results:  records,
	}
	writeBenchJSON("BENCH_build.json", doc)
}

// ------------------------------------------------------------ smoke gates

// binSmoke is the CI gate for the binary protocol: against a live ftcserve
// (addresses from FTCSERVE_HTTP and FTCSERVE_BIN), it drives pipelined
// concurrent probes through the frame listener, cross-checks a probe and
// the route and vertex products, within and over the f budget, against
// the JSON surface, and verifies the /metrics exposition counted the
// traffic. Exits nonzero on any failure.
func binSmoke() {
	httpBase := os.Getenv("FTCSERVE_HTTP")
	binAddr := os.Getenv("FTCSERVE_BIN")
	if httpBase == "" || binAddr == "" {
		fmt.Fprintln(os.Stderr, "ftcbench binsmoke: set FTCSERVE_HTTP (e.g. http://127.0.0.1:8337) and FTCSERVE_BIN (e.g. 127.0.0.1:8338)")
		os.Exit(2)
	}
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ftcbench binsmoke: "+format+"\n", args...)
		os.Exit(1)
	}

	var health serve.Healthz
	resp, err := http.Get(httpBase + "/healthz")
	if err != nil {
		die("healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		die("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.N < 2 || health.M < 1 {
		die("healthz reports n=%d m=%d — nothing to probe", health.N, health.M)
	}

	cl, err := wireclient.Dial(binAddr, wireclient.Options{Conns: 2, Inflight: 16})
	if err != nil {
		die("dial %s: %v", binAddr, err)
	}
	defer cl.Close()

	// Pipelined concurrent probes: more in-flight batches than connections,
	// so the smoke actually exercises the FIFO matching under interleaving.
	const workers, probesPer = 8, 100
	nFaults := 1
	if health.MaxFaults < 1 {
		nFaults = 0
	}
	qps := closedLoop(workers, workers*probesPer, func(prng *rand.Rand) {
		faults := make([]int, nFaults)
		for j := range faults {
			faults[j] = prng.Intn(health.M)
		}
		pairs := [][2]int{{prng.Intn(health.N), prng.Intn(health.N)}, {prng.Intn(health.N), prng.Intn(health.N)}}
		out, err := cl.Probe(faults, pairs)
		if err != nil {
			die("probe: %v", err)
		}
		if len(out) != len(pairs) {
			die("probe returned %d answers for %d pairs", len(out), len(pairs))
		}
	})

	// Cross-check one probe against the JSON surface.
	faults := []int{0}[:nFaults]
	pairs := [][2]int{{0, health.N - 1}}
	binOut, err := cl.Probe(faults, pairs)
	if err != nil {
		die("cross-check bin probe: %v", err)
	}
	body, _ := json.Marshal(serve.ConnectedRequest{FaultEdges: faults, Pairs: pairs})
	hresp, err := http.Post(httpBase+"/connected", "application/json", bytes.NewReader(body))
	if err != nil {
		die("cross-check http probe: %v", err)
	}
	var conn serve.ConnectedResponse
	if err := json.NewDecoder(hresp.Body).Decode(&conn); err != nil {
		die("cross-check decode (status %d): %v", hresp.StatusCode, err)
	}
	hresp.Body.Close()
	if len(conn.Connected) != 1 || conn.Connected[0] != binOut[0] {
		die("surfaces disagree: bin=%v json=%v", binOut, conn.Connected)
	}

	// Query products on both surfaces: route plans and vertex-fault
	// probes, each answered identically and exactly by the JSON and binary
	// handlers — within the f budget (from the labels) and over it (from
	// G − F): edge indices 0..f, and vertices 0..f, consecutive on the
	// smoke graph's ring.
	post := func(path string, req, out any) {
		body, _ := json.Marshal(req)
		resp, err := http.Post(httpBase+path, "application/json", bytes.NewReader(body))
		if err != nil {
			die("http %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			die("http %s %s: status %d", path, body, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			die("%s decode: %v", path, err)
		}
	}
	products := func(label string, overBudget bool, edges, verts []int, pairs [][2]int) {
		var rresp wire.RouteResp
		if err := cl.Route(edges, pairs, &rresp, 0); err != nil {
			die("%s bin route: %v", label, err)
		}
		var hroute serve.RouteResponse
		post("/route", serve.RouteRequest{FaultEdges: edges, Pairs: pairs}, &hroute)
		if rresp.Approx || hroute.Confidence != serve.ConfidenceExact || len(hroute.Routes) != len(pairs) {
			die("%s route not exact on both surfaces: bin=%+v json=%+v", label, rresp, hroute)
		}
		for i, leg := range hroute.Routes {
			if rresp.Reachable[i] != leg.Reachable || !slices.Equal(rresp.Paths[i], leg.Path) {
				die("%s route surfaces disagree on pair %v: bin=%+v json=%+v", label, pairs[i], rresp, hroute)
			}
		}
		vOut, _, vApprox, _, err := cl.VProbeInto(verts, pairs, nil, 0)
		if err != nil {
			die("%s bin vprobe: %v", label, err)
		}
		var hv serve.VConnectedResponse
		post("/vconnected", serve.VConnectedRequest{FaultVertices: verts, Pairs: pairs}, &hv)
		if vApprox || hv.Confidence != serve.ConfidenceExact || !slices.Equal(vOut, hv.Connected) {
			die("%s vconnected surfaces disagree or not exact: bin=%v(approx=%v) json=%+v", label, vOut, vApprox, hv)
		}
		if overBudget && (len(edges) <= health.MaxFaults || hv.FaultEdges <= health.MaxFaults) {
			die("%s: %d fault edges and %d incident edges do not exceed f=%d", label, len(edges), hv.FaultEdges, health.MaxFaults)
		}
	}
	products("within budget", false, faults, []int{0}[:nFaults], pairs)
	if health.M <= health.MaxFaults || health.N <= health.MaxFaults+1 {
		die("smoke graph too small to exceed the budget: n=%d m=%d f=%d", health.N, health.M, health.MaxFaults)
	}
	over := make([]int, health.MaxFaults+1)
	for i := range over {
		over[i] = i
	}
	products("over budget", true, over, over, [][2]int{{0, health.N - 1}, {health.N - 1, health.N / 2}, {over[len(over)-1], over[len(over)-1]}})

	// The metrics exposition must have counted the frame traffic.
	mresp, err := http.Get(httpBase + "/metrics")
	if err != nil {
		die("metrics scrape: %v", err)
	}
	raw, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		die("metrics read: %v", err)
	}
	exposition := string(raw)
	counted := false
	for _, line := range strings.Split(exposition, "\n") {
		if rest, ok := strings.CutPrefix(line, "ftcserve_bin_requests_total "); ok {
			counted = rest != "0"
		}
	}
	if !counted {
		die("ftcserve_bin_requests_total missing or zero after %d probes:\n%s", workers*probesPer, exposition)
	}
	if !strings.Contains(exposition, "ftcserve_bin_connections") || !strings.Contains(exposition, `ftcserve_cache_hits_total{shard="`) {
		die("metrics exposition missing expected series:\n%s", exposition)
	}
	for _, series := range []string{"ftcserve_route_plans_total ", "ftcserve_vprobes_total "} {
		if !strings.Contains(exposition, series) || strings.Contains(exposition, series+"0\n") {
			die("metrics did not count the query products (%s):\n%s", strings.TrimSpace(series), exposition)
		}
	}

	fmt.Printf("binsmoke ok: %d pipelined probes at %.0f qps, query products on both surfaces agree and are exact within and over the budget, metrics counted\n",
		workers*probesPer, qps)
}

// frontSmoke is the CI gate for the replicated tier's probe front: it fans
// hedged probes across a live replica fleet (FTC_FRONT_REPLICAS, a
// comma-separated list of binary-listener addresses) and cross-checks a
// sample of answers against the primary's JSON surface (FTCSERVE_HTTP).
func frontSmoke() {
	httpBase := os.Getenv("FTCSERVE_HTTP")
	replicaList := os.Getenv("FTC_FRONT_REPLICAS")
	if httpBase == "" || replicaList == "" {
		fmt.Fprintln(os.Stderr, "ftcbench frontsmoke: set FTCSERVE_HTTP (primary, e.g. http://127.0.0.1:8337) and FTC_FRONT_REPLICAS (e.g. 127.0.0.1:8348,127.0.0.1:8358)")
		os.Exit(2)
	}
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "ftcbench frontsmoke: "+format+"\n", args...)
		os.Exit(1)
	}
	addrs := strings.Split(replicaList, ",")

	var health serve.Healthz
	resp, err := http.Get(httpBase + "/healthz")
	if err != nil {
		die("healthz: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		die("healthz decode: %v", err)
	}
	resp.Body.Close()
	if health.N < 2 || health.M < 1 {
		die("healthz reports n=%d m=%d — nothing to probe", health.N, health.M)
	}

	f, err := front.Dial(addrs, front.Options{})
	if err != nil {
		die("dial fleet %v: %v", addrs, err)
	}
	defer f.Close()

	prng := rand.New(rand.NewSource(61))
	nFaults := 1
	if health.MaxFaults < 1 {
		nFaults = 0
	}
	const probes = 200
	for i := 0; i < probes; i++ {
		faults := make([]int, nFaults)
		for j := range faults {
			faults[j] = prng.Intn(health.M)
		}
		pairs := [][2]int{{prng.Intn(health.N), prng.Intn(health.N)}, {prng.Intn(health.N), prng.Intn(health.N)}}
		out, _, err := f.ConnectedBatch(faults, pairs)
		if err != nil {
			die("probe %d: %v", i, err)
		}
		if len(out) != len(pairs) {
			die("probe %d returned %d answers for %d pairs", i, len(out), len(pairs))
		}
		// Cross-check a sample against the primary's JSON surface: the
		// replicas must answer exactly as the primary would.
		if i%40 != 0 {
			continue
		}
		body, _ := json.Marshal(serve.ConnectedRequest{FaultEdges: faults, Pairs: pairs})
		hresp, err := http.Post(httpBase+"/connected", "application/json", bytes.NewReader(body))
		if err != nil {
			die("cross-check probe %d: %v", i, err)
		}
		var conn serve.ConnectedResponse
		if err := json.NewDecoder(hresp.Body).Decode(&conn); err != nil {
			die("cross-check decode (status %d): %v", hresp.StatusCode, err)
		}
		hresp.Body.Close()
		for j := range pairs {
			if conn.Connected[j] != out[j] {
				die("probe %d pair %d: front=%v primary=%v (faults=%v pairs=%v)", i, j, out[j], conn.Connected[j], faults, pairs)
			}
		}
	}

	st := f.Stats()
	if st.Probes != probes {
		die("front counted %d probes, want %d", st.Probes, probes)
	}
	fmt.Printf("frontsmoke ok: %d probes across %d replicas, answers match primary (p50 %v, p99 %v, %d hedges, %d hedge wins)\n",
		probes, f.Replicas(), st.P50, st.P99, st.Hedges, st.HedgeWins)
}

// closedLoop runs totalOps split evenly across the given number of client
// goroutines and returns the aggregate ops/sec.
func closedLoop(clients, totalOps int, op func(prng *rand.Rand)) float64 {
	per := totalOps / clients
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			prng := rand.New(rand.NewSource(int64(1000 + c)))
			for i := 0; i < per; i++ {
				op(prng)
			}
		}(c)
	}
	wg.Wait()
	return float64(per*clients) / time.Since(start).Seconds()
}

// ----------------------------------------------------------------- update

// updateRecord is one cell of the dynamic-update grid (E17): the cost of
// maintaining the labeling under topology churn, against the cost of
// rebuilding the world.
type updateRecord struct {
	Scheme       string  `json:"scheme"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	F            int     `json:"f"`
	RebuildNs    int64   `json:"full_rebuild_ns"`
	AddCommitNs  int64   `json:"incremental_add_commit_ns"`
	RemCommitNs  int64   `json:"incremental_remove_commit_ns"`
	Batch8Ns     int64   `json:"incremental_batch8_commit_ns"`
	RelabeledAvg float64 `json:"relabeled_edges_avg"`
	Speedup      float64 `json:"speedup_add_vs_rebuild"`
}

// addableEdges returns up to want absent same-component edges with
// distinct attach vertices (so per-vertex headroom is not the bottleneck).
func addableEdges(sch *ftc.Scheme, want int, rng *rand.Rand) [][2]int {
	g := sch.Graph()
	forest := sch.Inner().Forest
	used := map[int]bool{}
	var out [][2]int
	for try := 0; try < 50000 && len(out) < want; try++ {
		u, v := rng.Intn(g.N()), rng.Intn(g.N())
		if u > v {
			u, v = v, u
		}
		if u == v || g.HasEdge(u, v) || forest.Comp[u] != forest.Comp[v] || used[u] {
			continue
		}
		used[u] = true
		out = append(out, [2]int{u, v})
	}
	return out
}

// updateBench measures the dynamic-network update path (E17): per-kind and
// per-size, the latency of a single-edge incremental commit (insert and
// delete) and of an 8-edge batch, against a full rebuild of the same
// graph. With -json it writes BENCH_update.json. The acceptance bar
// tracked PR over PR: single-edge incremental commit ≥ 10× faster than
// full rebuild at n=1024, f=3 for det-netfind.
func updateBench() {
	const f = 3
	fmt.Println("E17 — dynamic updates: incremental commit vs full rebuild (seeded graphs p=8/n)")
	fmt.Printf("   %-12s %6s %6s %3s %12s %12s %12s %12s %9s %9s\n",
		"scheme", "n", "m", "f", "rebuild", "add-commit", "rem-commit", "batch8", "dirty", "speedup")
	kinds := []struct {
		name string
		opts []ftc.Option
	}{
		{"det-netfind", []ftc.Option{ftc.WithDeterministic()}},
		{"rand-rs", []ftc.Option{ftc.WithRandomized(17)}},
		{"agm", []ftc.Option{ftc.WithAGM(17)}},
	}
	var records []updateRecord
	for _, kr := range kinds {
		for _, n := range []int{256, 1024, 4096} {
			rng := rand.New(rand.NewSource(int64(n)))
			g := workload.ErdosRenyi(n, 8/float64(n), true, rng)
			edges := make([][2]int, g.M())
			for i, e := range g.Edges {
				edges[i] = [2]int{e.U, e.V}
			}
			opts := append([]ftc.Option{ftc.WithMaxFaults(f), ftc.WithHeadroom(64)}, kr.opts...)

			// Full rebuild cost: the best of a few from-scratch builds.
			reps := 3
			if n >= 4096 {
				reps = 1
			}
			var rebuild time.Duration
			for r := 0; r < reps; r++ {
				t0 := time.Now()
				if _, err := ftc.New(n, edges, opts...); err != nil {
					fmt.Fprintf(os.Stderr, "ftcbench: update build %s n=%d: %v\n", kr.name, n, err)
					os.Exit(1)
				}
				if d := time.Since(t0); r == 0 || d < rebuild {
					rebuild = d
				}
			}

			nw, err := ftc.Open(n, edges, opts...)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ftcbench: update open %s n=%d: %v\n", kr.name, n, err)
				os.Exit(1)
			}
			commit := func(add, rem [][2]int) (time.Duration, *ftc.CommitReport) {
				t0 := time.Now()
				rep, err := nw.CommitBatch(add, rem)
				d := time.Since(t0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ftcbench: update commit: %v\n", err)
					os.Exit(1)
				}
				if !rep.Incremental {
					fmt.Fprintf(os.Stderr, "ftcbench: commit fell back to rebuild (%s) — grid assumes the incremental path\n", rep.Reason)
					os.Exit(1)
				}
				return d, rep
			}
			// Measure single-edge insert commits (median of 5), then delete
			// the same edges back (median of 5), then one 8-edge batch.
			cand := addableEdges(nw.Snapshot(), 13, rng)
			if len(cand) < 13 {
				fmt.Fprintf(os.Stderr, "ftcbench: update: only %d candidate edges at n=%d\n", len(cand), n)
				os.Exit(1)
			}
			var addDur, remDur []time.Duration
			var dirty int
			for i := 0; i < 5; i++ {
				d, rep := commit([][2]int{cand[i]}, nil)
				addDur = append(addDur, d)
				dirty += len(rep.Relabeled)
			}
			for i := 0; i < 5; i++ {
				d, _ := commit(nil, [][2]int{cand[i]})
				remDur = append(remDur, d)
			}
			batch8, _ := commit(cand[5:13], nil)

			rec := updateRecord{
				Scheme:       kr.name,
				N:            n,
				M:            g.M(),
				F:            f,
				RebuildNs:    rebuild.Nanoseconds(),
				AddCommitNs:  median(addDur).Nanoseconds(),
				RemCommitNs:  median(remDur).Nanoseconds(),
				Batch8Ns:     batch8.Nanoseconds(),
				RelabeledAvg: float64(dirty) / 5,
			}
			rec.Speedup = float64(rec.RebuildNs) / float64(rec.AddCommitNs)

			records = append(records, rec)
			fmt.Printf("   %-12s %6d %6d %3d %12s %12s %12s %12s %9.1f %8.0fx\n",
				rec.Scheme, rec.N, rec.M, rec.F,
				round(time.Duration(rec.RebuildNs)), round(time.Duration(rec.AddCommitNs)),
				round(time.Duration(rec.RemCommitNs)), round(time.Duration(rec.Batch8Ns)),
				rec.RelabeledAvg, rec.Speedup)
		}
	}
	fmt.Println("   (rebuild = full from-scratch construction of the same graph; add/rem-commit =")
	fmt.Println("    one-edge incremental Commit incl. COW publish; dirty = labels rewritten per commit)")
	if !jsonOut {
		return
	}
	doc := struct {
		Benchmark string         `json:"benchmark"`
		Note      string         `json:"note"`
		Results   []updateRecord `json:"results"`
	}{
		Benchmark: "ftc.Network.Commit",
		Note: "full_rebuild_ns is a from-scratch ftc.New of the mutated graph (what serving a " +
			"topology change cost before the dynamic-network API); incremental_*_commit_ns is " +
			"ftc.Network.Commit on the incremental path, including the copy-on-write publish of " +
			"the new generation. Acceptance bar: speedup_add_vs_rebuild ≥ 10 at " +
			"n=1024 f=3 det-netfind. Regenerated by `ftcbench update -json`. Wall times on " +
			"shared hardware are noisy — compare like-for-like runs.",
		Results: records,
	}
	writeBenchJSON("BENCH_update.json", doc)
}

func median(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}

// ------------------------------------------------------------------ util

func round(d time.Duration) string {
	switch {
	case d > time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d > time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	case d > time.Microsecond:
		return d.Round(100 * time.Nanosecond).String()
	default:
		return d.String()
	}
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}

// writeBenchJSON writes doc to path as indented JSON.
func writeBenchJSON(path string, doc any) {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftcbench: marshal %s: %v\n", path, err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "ftcbench: write %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("   wrote %s\n", path)
}

// mergeBenchJSON read-modify-writes path as a generic JSON object, so
// runs that own different top-level keys (chaos_seedN) never clobber each
// other.
func mergeBenchJSON(path string, update func(doc map[string]json.RawMessage)) {
	doc := map[string]json.RawMessage{}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			fmt.Fprintf(os.Stderr, "ftcbench: %s exists but is not a JSON object (%v); rewriting\n", path, err)
			doc = map[string]json.RawMessage{}
		}
	}
	update(doc)
	writeBenchJSON(path, doc)
}
