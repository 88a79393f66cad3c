#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the root of the checkout (nothing is written
# outside the checkout, not even Go's build cache) and runs it from
# there with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
bin="$out/icbench"

# Rebuild only when a source file is newer than the binary.
if [ ! -x "$bin" ] || [ -n "$(find "$root" -path "$out" -prune -o \
	\( -name '*.go' -o -name '*.s' -o -name 'go.mod' \) -newer "$bin" -print -quit)" ]; then
	mkdir -p "$out/tmp"
	(
		cd "$here"
		export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
		export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
		go build -o "$bin" .
	)
fi
cd "$root"
exec "$bin" "$@"
