#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run leave behind stays in .bench_build/ in the
# checkout: the binary, the Go build cache, and the go command's own counter
# files, which it would otherwise keep under the user's config directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

out="$root/.bench_build"
mkdir -p "$out"
(
	cd bench
	GOCACHE="$out/go-cache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local \
		go build -o "$out/bench" .
)
exec "$out/bench" "$@"
