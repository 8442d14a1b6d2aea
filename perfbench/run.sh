#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything the build and the run write —
# the Go build cache, the binary, temporary data directories, result and
# span files — stays under .bench_build/ in the checkout. The binary is
# rebuilt on every run (incrementally, from the cache), so a stale build
# is never measured; when the sources do not build, the script exits
# non-zero without printing a result.
set -euo pipefail

root="$(pwd)"
bench="$root/perfbench"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/home" "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go -C "$bench" build -buildvcs=false -o "$out/perfbench" .

commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || true)"
exec env BENCH_COMMIT="$commit" "$out/perfbench" "$@"
