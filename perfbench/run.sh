#!/usr/bin/env bash
# Builds the perfbench command and maxrsd from this checkout's sources and
# runs perfbench with the given arguments, from the checkout's root:
#
#   bash perfbench/run.sh --workload external-uniform --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, its temporary files and the toolchain's
# own configuration directory included.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off XDG_CONFIG_HOME="$out/config"
# perfbench is a module of its own (perfbench/go.mod) that points at the
# repository's module through a replace directive; maxrsd is built by the
# repository's own module.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
go build -o "$out/maxrsd" ./cmd/maxrsd >&2
# The traced run reads its CPU profile with the toolchain's pprof tool.
exec "$out/perfbench" -maxrsd "$out/maxrsd" -pprof "$(go env GOTOOLDIR)/pprof" \
	-workdir "$out/work" -out "$out/traces" "$@"
