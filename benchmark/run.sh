#!/usr/bin/env bash
# BENCHMARK.json's command: builds the benchmark and runs one workload once.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the Go toolchain writes — build cache, temporaries, its telemetry
# counters (kept under the user configuration directory), the two binaries —
# goes under .bench_build in the checkout, so a run reads and writes nothing
# outside it. Without the repository around it (no ../go.mod to resolve the
# `repro` module) the build fails and the script exits non-zero.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config" \
	GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$build/benchmark" .) >&2
cd "$root"
exec "$build/benchmark" "$@"
