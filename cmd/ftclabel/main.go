// Command ftclabel turns the labeling scheme into a standalone tool: build a
// scheme snapshot for a graph file (the file ftcserve -save writes and
// -snapshot serves), inspect it, and answer connectivity queries from the
// labels of s, t and the faults alone. The snapshot's edge list serves the
// load's token check; it reveals nothing new, as each edge label already
// carries both endpoints' ancestry labels.
//
//	ftclabel build  -graph g.txt -out scheme.ftcsnap [-f 3] [-scheme det|greedy|rand|agm] [-seed 1]
//	ftclabel stats  -labels scheme.ftcsnap
//	ftclabel query  -labels scheme.ftcsnap -s 0 -t 5 -faults 3,7,12
//
// Fault arguments are edge indices (the insertion order of the graph file's
// `e` lines). The seed applies to the rand and agm schemes only. stats
// prints the snapshot's size and how many edge labels it stores short, as
// the preorder of their leaf, and how many in full.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/graphio"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "build":
		buildCmd(os.Args[2:])
	case "stats":
		statsCmd(os.Args[2:])
	case "query":
		queryCmd(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: ftclabel build|stats|query [flags]")
	os.Exit(2)
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ftclabel: "+format+"\n", args...)
	os.Exit(1)
}

func buildCmd(args []string) {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	graphPath := fs.String("graph", "", "input graph file (text format)")
	outPath := fs.String("out", "", "output scheme snapshot")
	f := fs.Int("f", 2, "fault budget")
	scheme := fs.String("scheme", "det", "det|greedy|rand|agm")
	seed := fs.Int64("seed", 1, "seed for randomized schemes")
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}
	if *graphPath == "" || *outPath == "" {
		fatalf("build requires -graph and -out")
	}
	in, err := os.Open(*graphPath)
	if err != nil {
		fatalf("%v", err)
	}
	defer in.Close()
	g, err := graphio.ReadGraph(in)
	if err != nil {
		fatalf("%v", err)
	}
	params := core.Params{MaxFaults: *f}
	switch *scheme {
	case "det":
		params.Kind = core.KindDetNetFind
	case "greedy":
		params.Kind = core.KindDetGreedy
	case "rand":
		params.Kind, params.Seed = core.KindRandRS, *seed
	case "agm":
		params.Kind, params.Seed = core.KindAGM, *seed
	default:
		fatalf("unknown scheme %q", *scheme)
	}
	s, err := core.Build(g, params)
	if err != nil {
		fatalf("%v", err)
	}
	data, err := s.MarshalBinary()
	if err != nil {
		fatalf("%v", err)
	}
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fatalf("writing snapshot: %v", err)
	}
	fmt.Printf("labeled n=%d m=%d f=%d scheme=%s: max edge label %d bits\n",
		g.N(), g.M(), *f, *scheme, s.MaxEdgeLabelBits())
}

// load reads and loads a snapshot, returning its bytes too.
func load(path string) (*core.Scheme, []byte) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatalf("%v", err)
	}
	s, err := core.UnmarshalScheme(data)
	if err != nil {
		fatalf("%v", err)
	}
	return s, data
}

func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	labelPath := fs.String("labels", "", "scheme snapshot")
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}
	if *labelPath == "" {
		fatalf("stats requires -labels")
	}
	s, data := load(*labelPath)
	n, m := s.N(), s.Graph().M()
	vertexBits := 0
	if n > 0 {
		vertexBits = core.VertexLabelBits
	}
	maxBits := s.MaxEdgeLabelBits() // every edge label has this size
	fmt.Printf("vertices: %d (label %d bits each)\n", n, vertexBits)
	fmt.Printf("edges:    %d (max label %d bits, total %d bits)\n", m, maxBits, m*maxBits)
	// data[6] is the version byte, after the 6-byte magic.
	fmt.Printf("snapshot: %d bytes, version %d\n", len(data), data[6])
	short := s.ShortEdgeLabels()
	fmt.Printf("stored:   %d short, %d full edge labels\n", short, m-short)
	if m > 0 {
		spec := s.Spec()
		fmt.Printf("scheme:   %s f=%d k=%d levels=%d\n", spec.Kind, s.MaxFaults(), spec.K, spec.Levels)
	}
}

func queryCmd(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	labelPath := fs.String("labels", "", "scheme snapshot")
	s := fs.Int("s", -1, "source vertex")
	t := fs.Int("t", -1, "target vertex")
	faultsArg := fs.String("faults", "", "comma-separated faulty edge indices")
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}
	if *labelPath == "" || *s < 0 || *t < 0 {
		fatalf("query requires -labels, -s, -t")
	}
	sch, _ := load(*labelPath)
	if *s >= sch.N() || *t >= sch.N() {
		fatalf("vertex out of range (n=%d)", sch.N())
	}
	var faults []core.EdgeLabel
	if *faultsArg != "" {
		for _, part := range strings.Split(*faultsArg, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || idx < 0 || idx >= sch.Graph().M() {
				fatalf("bad fault index %q", part)
			}
			faults = append(faults, sch.EdgeLabel(idx))
		}
	}
	ok, err := core.Connected(sch.VertexLabel(*s), sch.VertexLabel(*t), faults)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("connected(%d, %d | %d faults) = %v\n", *s, *t, len(faults), ok)
}
