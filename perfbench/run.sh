#!/usr/bin/env bash
# Builds risc1-serve and the perfbench program from the sources of the
# checkout it is started in, then runs perfbench with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hot-zipf --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes goes under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$out/bin"
go build -o "$out/bin/risc1-serve" ./cmd/risc1-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve "$out/bin/risc1-serve" "$@"
