#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources, then runs it from the
# checkout root with the given arguments:
#
#   bash bench/run.sh --workload serve-fleet --seed 7 --seconds 24 --trace 0
#
# The binary, the Go build cache, temporary files and the benchmark's
# working data all stay in .bench_build/ at the checkout root. The build
# finishes before the benchmark starts timing. Outside a full checkout the
# build fails, and so does the script.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/bench" . >&2
exec "$out/bench" "$@"
