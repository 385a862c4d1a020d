package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// tmpRoot holds the run's scratch files (the generation log).
const tmpRoot = ".bench_build/perfbench/tmp"

// hostFacts records what a reader needs to compare runs across hosts.
func hostFacts(cfg config) map[string]any {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return map[string]any{
		"num_cpu":        runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go_version":     runtime.Version(),
		"goos_goarch":    runtime.GOOS + "/" + runtime.GOARCH,
		"git_commit":     commit,
		"source_sha256":  sourceDigest("."),
		"seed":           cfg.seed,
		"run_seconds":    cfg.seconds,
		"traced":         cfg.trace,
		"scratch_fs":     fsType(tmpRoot),
		"genlog_fsync":   "every append fsyncs (genlog.Log.Append); compaction fsyncs checkpoint and log rewrites",
		"setup_repeats":  setupRepeats,
		"rate_windows":   rateWindows,
		"tail_window":    chunk,
		"percentile_min": "a percentile is reported only with at least 10 samples beyond it",
	}
}

// fsType names the filesystem holding dir, from statfs's magic number.
func fsType(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "unknown"
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("statfs type %#x", st.Type)
}

// sourceDigest hashes the checkout's Go sources and module files, which
// identifies the measured code where no git commit is available.
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}
