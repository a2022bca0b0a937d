#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's source and runs one
# workload:
#
#   bash perfbench/run.sh --workload dense-agg --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, per-run data,
# result records and traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" --out "$out" "$@"
