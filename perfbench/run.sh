#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it:
#
#   bash perfbench/run.sh --workload edge-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build cache, the binary, scratch files
# and the per-run records all live under .bench_build/perfbench, so nothing
# is read or written outside the checkout.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/home"

export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=

(cd "$here" && go build -buildvcs=false -o "$out/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
	commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
