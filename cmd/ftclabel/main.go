// Command ftclabel turns the labeling scheme into a standalone tool: build a
// label database for a graph file, inspect it, and answer connectivity
// queries — the decoder side touches only the label database, never the
// graph, mirroring the scheme's information model.
//
//	ftclabel build  -graph g.txt -out labels.db [-f 3] [-scheme det|greedy|rand|agm] [-seed 1]
//	ftclabel stats  -labels labels.db
//	ftclabel query  -labels labels.db -s 0 -t 5 -faults 3,7,12
//
// Fault arguments are edge indices (the insertion order of the graph file's
// `e` lines).
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
	outPath := fs.String("out", "", "output label database")
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
	params := core.Params{MaxFaults: *f, Seed: *seed}
	switch *scheme {
	case "det":
		params.Kind = core.KindDetNetFind
	case "greedy":
		params.Kind = core.KindDetGreedy
	case "rand":
		params.Kind = core.KindRandRS
	case "agm":
		params.Kind = core.KindAGM
	default:
		fatalf("unknown scheme %q", *scheme)
	}
	s, err := core.Build(g, params)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := os.Create(*outPath)
	if err != nil {
		fatalf("%v", err)
	}
	if err := graphio.WriteLabels(out, s, g); err != nil {
		fatalf("writing labels: %v", err)
	}
	if err := out.Close(); err != nil {
		fatalf("closing output: %v", err)
	}
	fmt.Printf("labeled n=%d m=%d f=%d scheme=%s: max edge label %d bits\n",
		g.N(), g.M(), *f, *scheme, s.MaxEdgeLabelBits())
}

func loadDB(path string) *graphio.LabelDB {
	in, err := os.Open(path)
	if err != nil {
		fatalf("%v", err)
	}
	defer in.Close()
	db, err := graphio.ReadLabels(in)
	if err != nil {
		fatalf("%v", err)
	}
	return db
}

func statsCmd(args []string) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	labelPath := fs.String("labels", "", "label database")
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}
	if *labelPath == "" {
		fatalf("stats requires -labels")
	}
	db := loadDB(*labelPath)
	maxBits, totalBits := 0, 0
	for i := range db.Edges {
		b := core.EdgeLabelBits(db.Edges[i])
		totalBits += b
		if b > maxBits {
			maxBits = b
		}
	}
	fmt.Printf("vertices: %d (label %d bits each)\n", len(db.Vertices), vertexBits(db))
	fmt.Printf("edges:    %d (max label %d bits, total %d bits)\n", len(db.Edges), maxBits, totalBits)
	if len(db.Edges) > 0 {
		spec := db.Edges[0].Spec
		fmt.Printf("scheme:   %s f=%d k=%d levels=%d\n",
			spec.Kind, db.Edges[0].MaxFaults, spec.K, spec.Levels)
	}
}

func vertexBits(db *graphio.LabelDB) int {
	if len(db.Vertices) == 0 {
		return 0
	}
	return core.VertexLabelBits
}

func queryCmd(args []string) {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	labelPath := fs.String("labels", "", "label database")
	s := fs.Int("s", -1, "source vertex")
	t := fs.Int("t", -1, "target vertex")
	faultsArg := fs.String("faults", "", "comma-separated faulty edge indices")
	if err := fs.Parse(args); err != nil {
		fatalf("%v", err)
	}
	if *labelPath == "" || *s < 0 || *t < 0 {
		fatalf("query requires -labels, -s, -t")
	}
	db := loadDB(*labelPath)
	if *s >= len(db.Vertices) || *t >= len(db.Vertices) {
		fatalf("vertex out of range (n=%d)", len(db.Vertices))
	}
	var faults []core.EdgeLabel
	if *faultsArg != "" {
		for _, part := range strings.Split(*faultsArg, ",") {
			idx, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || idx < 0 || idx >= len(db.Edges) {
				fatalf("bad fault index %q", part)
			}
			faults = append(faults, db.Edges[idx])
		}
	}
	ok, err := core.Connected(db.Vertices[*s], db.Vertices[*t], faults)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("connected(%d, %d | %d faults) = %v\n", *s, *t, len(faults), ok)
}
