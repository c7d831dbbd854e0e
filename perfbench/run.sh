#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Every build artefact, cache and output stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
