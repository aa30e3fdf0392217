#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload search_scan --seed 1 --seconds 30 --trace 0
#
# Build output, the Go build cache, the go command's own config and
# temporary files, and run scratch space all live under .bench_build/ in
# the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench-bin" .)
exec "$out/perfbench-bin" --dir "$out/perfbench" "$@"
