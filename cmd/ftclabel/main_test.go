package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	ftc "repro"
)

// runMain runs ftclabel's main with args in a child process (this test
// binary re-executed) and returns what it printed.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestBuildStatsQuery$")
	cmd.Env = append(os.Environ(), "FTCLABEL_MAIN_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("ftclabel %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return string(out)
}

// TestBuildStatsQuery drives build, stats and query on an 8-cycle for
// every scheme kind. build must write exactly the snapshot ftc.Save writes
// for the same graph and options (so ftcserve -snapshot serves it), and
// the queries must answer from the file: faults 0,3 cut the cycle between
// 2 and 5, and faults 0,7 isolate vertex 0 only.
func TestBuildStatsQuery(t *testing.T) {
	if args, ok := os.LookupEnv("FTCLABEL_MAIN_ARGS"); ok {
		os.Args = append([]string{"ftclabel"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	var edges [][2]int
	text := "n 8\n"
	for v := 0; v < 8; v++ {
		edges = append(edges, [2]int{v, (v + 1) % 8})
		text += fmt.Sprintf("e %d %d\n", v, (v+1)%8)
	}
	graphPath := filepath.Join(dir, "cycle8.graph")
	if err := os.WriteFile(graphPath, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		kind string
		seed []string
		opt  ftc.Option
	}{
		{"det", nil, ftc.WithDeterministic()},
		{"greedy", nil, ftc.WithGreedyNet()},
		{"rand", []string{"-seed", "7"}, ftc.WithRandomized(7)},
		{"agm", []string{"-seed", "7"}, ftc.WithAGM(7)},
	} {
		snap := filepath.Join(dir, tc.kind+".ftcsnap")
		runMain(t, append([]string{"build", "-graph", graphPath, "-out", snap, "-f", "2", "-scheme", tc.kind}, tc.seed...)...)
		got, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ftc.New(8, edges, ftc.WithMaxFaults(2), tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := s.Save(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: build wrote %d bytes that differ from ftc.Save's %d", tc.kind, len(got), want.Len())
		}
		stats := runMain(t, "stats", "-labels", snap)
		if !strings.Contains(stats, "vertices: 8 ") || !strings.Contains(stats, "edges:    8 ") {
			t.Fatalf("%s: stats does not report 8 vertices and 8 edges:\n%s", tc.kind, stats)
		}
		// The cycle's one non-tree edge is stored short, at least.
		var size, version, short, full int
		i := strings.Index(stats, "snapshot: ")
		if i < 0 {
			t.Fatalf("%s: stats prints no snapshot line:\n%s", tc.kind, stats)
		}
		if _, err := fmt.Sscanf(stats[i:], "snapshot: %d bytes, version %d\nstored:   %d short, %d full edge labels",
			&size, &version, &short, &full); err != nil || size != len(got) || version != 5 || short < 1 || short+full != 8 {
			t.Fatalf("%s: stats reads size %d, version %d, %d short and %d full (err %v), want %d bytes, version 5, a short label, 8 in all:\n%s",
				tc.kind, size, version, short, full, err, len(got), stats)
		}
		for _, q := range []struct{ args, want string }{
			{"-s 2 -t 5 -faults 0,3", "= false"},
			{"-s 0 -t 4 -faults 0,7", "= false"},
			{"-s 1 -t 6 -faults 0,7", "= true"},
		} {
			out := runMain(t, append([]string{"query", "-labels", snap}, strings.Fields(q.args)...)...)
			if !strings.Contains(out, q.want) {
				t.Fatalf("%s: query %s printed %q, want %q", tc.kind, q.args, out, q.want)
			}
		}
	}
}
