#!/usr/bin/env bash
# Builds the benchmark from the checkout it runs in, then runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
args=()
while [ $# -gt 0 ]; do
	case "$1" in
	--workload | --seed | --seconds | --trace) args+=("-${1#--}" "$2"); shift 2 ;;
	*) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
	esac
done
exec "$build/perfbench" "${args[@]}"
