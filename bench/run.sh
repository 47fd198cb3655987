#!/usr/bin/env bash
# Builds bench/lrmload from this checkout and runs it with the given
# arguments, e.g.
#
#   bash bench/run.sh --workload warm-single --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write (Go build cache, binaries, server temp dirs) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f cmd/lrmserve/main.go || ! -f bench/go.mod ]]; then
	echo "run.sh: run from the root of an lrm checkout (cmd/lrmserve and bench/ must be present)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd bench && go build -o "$out/bin/lrmload" ./lrmload)
exec "$out/bin/lrmload" "$@"
