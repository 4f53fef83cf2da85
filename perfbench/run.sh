#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs it with the given arguments. Run it from the checkout root:
#
#   bash perfbench/run.sh --workload gcc-f3m --seed 1 --seconds 20 --trace 0
#
# Build outputs (the Go build cache and the binary) stay inside the
# checkout, under $CARGO_TARGET_DIR when it is set, else .bench_build.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/f3mbench" .) >&2
cd "$root"
exec "$out/f3mbench" "$@"
