#!/usr/bin/env bash
# Builds the PeerHood benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash phbench/run.sh --workload rush-tcp --seed 1 --seconds 15 --trace 0
# Everything the build and the run leave behind goes under .bench_build/
# (or $CARGO_TARGET_DIR when set), so the toolchain writes nothing outside
# the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/phbench/go.mod" ]; then
	echo "phbench: run from the repository root" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/phbench"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

(cd "$root/phbench" && go build -o "$out/phbench/phbench" .) >&2
exec "$out/phbench/phbench" --state-dir "$out/phbench" "$@"
