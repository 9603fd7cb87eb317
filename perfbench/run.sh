#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload fleet-converge --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/. "--workload all" runs every workload, each
# in its own process, one after another.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
# The program under test takes its defaults, not the caller's tuning.
unset GOGC GOMEMLIMIT GODEBUG GOMAXPROCS CENTRALIUM_PARALLEL CENTRALIUM_FULL_RECOMPUTE

(cd "$root/perfbench" && go build -o "$build/perfbench" .)

if [[ " $* " == *" --workload all "* ]]; then
	args=()
	skip=0
	for a in "$@"; do
		if [[ $skip == 1 ]]; then skip=0; continue; fi
		if [[ $a == --workload ]]; then skip=1; continue; fi
		args+=("$a")
	done
	for w in fleet-converge whatif-serve campaign-durable; do
		"$build/perfbench" --workload "$w" "${args[@]}"
	done
	exit 0
fi
exec "$build/perfbench" "$@"
