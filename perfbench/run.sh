#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it. Run it
# from the checkout root:
#
#   bash perfbench/run.sh --workload cpu-tee-figs --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temp files and tool state live under .bench_build,
# so a run reads and writes only inside the checkout. Outputs (spans, CPU
# profile, per-run summary) go to .bench_out.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
