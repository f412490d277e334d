#!/usr/bin/env bash
# Builds the study benchmark from this checkout's source and runs it:
#   bash studybench/run.sh --workload paper-window --seed 42 --seconds 30 --trace 0
# Run it from the repository root. Every build and run artifact stays
# under .bench_build/ in the current directory.
set -euo pipefail
root="$PWD"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/studybench" && go build -o "$out/bin/studybench" .)
exec "$out/bin/studybench" "$@"
