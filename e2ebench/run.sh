#!/usr/bin/env bash
# Builds the end-to-end benchmark and runs it. Run from the root of a
# wafe checkout:
#
#   bash e2ebench/run.sh --workload dialogue --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and temporary file stays under .bench_build
# in the checkout.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/cmd/wafe/main.go" ]]; then
	echo "e2ebench: run from the root of a wafe checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local
export GOFLAGS=
export CGO_ENABLED=0

(cd "$here" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
