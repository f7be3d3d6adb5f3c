#!/usr/bin/env bash
# Entry point of the benchmark (the "command" of BENCHMARK.json): builds the
# harness from source and runs it with the given arguments. Everything the
# Go toolchain writes — build cache, temporary files, binaries — stays in
# .bench_build inside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C "$root/bench" build -o "$build/bin/aladin-bench" .

# One CPU for the harness and every server it starts: the sandbox's CPUs
# are shares of a busy host, and what runs on two of them at once waits for
# the slower one at every hand-over (see README.md, "Sandbox caveats").
pin=()
if command -v taskset >/dev/null; then
	cpu="$(taskset -cp $$ 2>/dev/null | sed 's/.*: *//; s/[,-].*//')" || cpu=""
	if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
		pin=(taskset -c "$cpu")
	fi
fi
exec "${pin[@]}" "$build/bin/aladin-bench" -root "$root" "$@"
