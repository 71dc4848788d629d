#!/usr/bin/env bash
# The benchmark's build file.  Builds package ./benchmark of the repository's
# module into .bench_build/ at the root of the checkout and replaces this shell
# with the binary, so that a signal sent to the command reaches the benchmark
# itself and nothing outlives it (`go run` would leave its child behind when
# killed).  The Go build cache goes to .bench_build/ too, so everything the
# build writes stays inside the checkout; the module has no dependency, so
# nothing is downloaded.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
cd "$root"

# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout too.
GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config" go build -o "$out/benchmark" ./benchmark

exec "$out/benchmark" "$@"
