#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it there. Everything the build writes (build cache, module path, the
# toolchain's config dir) is kept inside .bench_build, so a run reads and
# writes only inside its checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/home"
(
	cd "$root/bench"
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" \
	GOCACHE="$build/gocache" GOPATH="$build/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off \
		go build -o "$build/datacron-bench" .
)
cd "$root"
# madvdontneed=0: the runtime returns freed heap to the kernel lazily
# (MADV_FREE), so a repeat that regrows the heap its predecessor released does
# not page-fault it in again. A long-running pipeline keeps its heap; only a
# benchmark that builds and drops a pipeline every few seconds pays that cost,
# and on a virtual machine whose host reclaims freed pages it is an erratic one.
GODEBUG="madvdontneed=0${GODEBUG:+,$GODEBUG}" exec "$build/datacron-bench" "$@"
