#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload nessa_c100 --seed 1 --seconds 20 --trace 0
#
# Everything the build leaves behind (binary, Go build cache, temp
# files) stays under .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
