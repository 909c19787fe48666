#!/usr/bin/env bash
# Builds racedetect, racedetectd and the benchmark from this checkout's
# sources (only when they changed since the last build), then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload replay-paper --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Everything it builds or writes
# goes under .bench_build, including the Go build cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off

stamp=$(find . \( -path ./.bench_build -o -path ./.git \) -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-32)
if [ "$(cat "$build/bin/stamp" 2>/dev/null || true)" != "$stamp" ]; then
	rm -f "$build/bin/stamp"
	go build -o "$build/bin/racedetect" ./cmd/racedetect
	go build -o "$build/bin/racedetectd" ./cmd/racedetectd
	(cd perfbench && go build -o "$build/bin/perfbench" .)
	echo "$stamp" >"$build/bin/stamp"
fi
exec "$build/bin/perfbench" --root "$root" --bin "$build/bin" "$@"
