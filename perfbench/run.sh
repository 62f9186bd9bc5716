#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-profiles --seed 1 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, Go's own config)
# goes under the build directory ($CARGO_TARGET_DIR, default .bench_build)
# so a run touches nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build"
export GOCACHE=$build/gocache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOENV=off GOPROXY=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
