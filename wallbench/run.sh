#!/usr/bin/env bash
# Builds the wall-clock benchmark from the sources of the checkout it runs
# in and runs it; run it from the repository root:
#
#   bash wallbench/run.sh --workload put-bls --seed 1 --seconds 36 --trace 0
#
# Every build and run artifact (Go build cache, binary, ledgers, span
# dumps) stays under $CARGO_TARGET_DIR, default .bench_build.
set -euo pipefail
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$PWD/$out ;; esac
mkdir -p "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod \
	GOTMPDIR=$out/tmp TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOENV=off
(cd wallbench && go build -o "$out/wallbench" .)
exec "$out/wallbench" --out "$out" "$@"
