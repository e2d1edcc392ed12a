#!/usr/bin/env bash
# The BENCHMARK.json command: build the ledger from source, then run it from
# the root of the checkout with the driver's arguments. Everything the build
# and the run write stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/go-cache" GOPATH="$root/.bench_build/gopath"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local
go build -C ledger -o "$root/.bench_build/ledger" .
exec "$root/.bench_build/ledger" "$@"
