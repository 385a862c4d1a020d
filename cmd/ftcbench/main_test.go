package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

func TestParseArgs(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		section string
		want    options
	}{
		{nil, "all", options{seed: 1}},
		{[]string{"-json"}, "all", options{json: true, seed: 1}},
		{[]string{"-json", "build"}, "build", options{json: true, seed: 1}},
		{[]string{"build", "-json"}, "build", options{json: true, seed: 1}},
		{[]string{"-seed", "2", "chaos"}, "chaos", options{seed: 2}},
		{[]string{"-seed=2", "chaos"}, "chaos", options{seed: 2}},
		{[]string{"chaos", "-seed", "2"}, "chaos", options{seed: 2}},
		{[]string{"chaos", "-seed=2"}, "chaos", options{seed: 2}},
		{[]string{"chaos", "-smoke", "-json", "-seed=2"}, "chaos", options{json: true, smoke: true, seed: 2}},
		{[]string{"-json", "-smoke", "chaos", "-seed", "2"}, "chaos", options{json: true, smoke: true, seed: 2}},
	} {
		section, opts, err := parseArgs(tc.args)
		if err != nil {
			t.Fatalf("parseArgs(%q): %v", tc.args, err)
		}
		if section != tc.section || opts != tc.want {
			t.Fatalf("parseArgs(%q) = %q %+v, want %q %+v", tc.args, section, opts, tc.section, tc.want)
		}
	}
}

// badArgs are rejected before any section runs: malformed values, unknown
// or retired sections, retired flags, and stray positional arguments.
var badArgs = [][]string{
	{"chaos", "-smoke", "-seed=abc"},
	{"-seed", "abc", "chaos"},
	{"nosuchsection"},
	{"serve"},
	{"load"},
	{"replicate"},
	{"query", "-product", "route"},
	{"query", "-product=edge"},
	{"load", "-proto", "bin"},
	{"-proto=both", "build"},
	{"chaos", "update"},
}

func TestParseArgsRejects(t *testing.T) {
	for _, args := range badArgs {
		if section, _, err := parseArgs(args); err == nil {
			t.Fatalf("parseArgs(%q) = section %q, want an error", args, section)
		}
	}
}

// TestMainExitsTwoOnBadArgs runs main in a child process (this test binary
// re-executed) and requires exit status 2 and the usage line.
func TestMainExitsTwoOnBadArgs(t *testing.T) {
	if args, ok := os.LookupEnv("FTCBENCH_MAIN_ARGS"); ok {
		os.Args = append([]string{"ftcbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range badArgs {
		cmd := exec.Command(os.Args[0], "-test.run=^TestMainExitsTwoOnBadArgs$")
		cmd.Env = append(os.Environ(), "FTCBENCH_MAIN_ARGS="+strings.Join(args, " "))
		out, err := cmd.CombinedOutput()
		exit, ok := err.(*exec.ExitError)
		if !ok || exit.ExitCode() != 2 {
			t.Fatalf("ftcbench %q: err %v, want exit status 2\n%s", args, err, out)
		}
		if !strings.Contains(string(out), "usage: ftcbench") {
			t.Fatalf("ftcbench %q: no usage line in output:\n%s", args, out)
		}
	}
}
