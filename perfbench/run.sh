#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run from, then runs
# it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload plan-gpt3-13b-64 --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the binary)
# and the traced runs' span files stay under .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/modcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
