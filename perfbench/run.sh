#!/usr/bin/env bash
# Builds the benchmark program into .bench_build and runs it with the
# given arguments. Run from the root of a hipstr checkout:
#
#   bash perfbench/run.sh --workload fleet-steady --seed 1 --seconds 25 --trace 0
#
# The Go build cache, module cache and the go command's own config and
# telemetry directory live under .bench_build too, so the benchmark reads
# and writes only inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a hipstr checkout" >&2
	exit 2
fi

root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out-dir "$out/perfbench-out" "$@"
