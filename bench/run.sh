#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root
# with the given arguments, for example:
#
#   bash bench/run.sh --workload mix-cold --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and everything a run writes stay under
# .bench_build/ in the checkout. The benchmark is its own Go module
# (bench/go.mod) that uses the repository module through a replace
# directive, so a directory without the repository fails to build.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
