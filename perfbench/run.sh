#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes live under
# .bench_build/ in the checkout root. Outside a full checkout (no
# repository module beside perfbench/) the build fails and so does this
# script, without printing a result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"

# Keep the toolchain's caches, temp files and config inside the
# checkout, and never let it reach for a network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
