#!/usr/bin/env bash
# Builds leosim and the benchmark from the checkout's sources into
# .bench_build/ and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the root of a leosim checkout. Everything it builds or writes
# stays under .bench_build/; the build fails, and so does the run, when the
# leosim sources are not there.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off \
	GOWORK=off GOFLAGS= GOENV=off CGO_ENABLED=0

# The checkout may not be a git repository, so the run is identified by a
# digest of the build inputs: the Go sources, go.mod and the pinned digests
# the benchmark embeds. An unchanged digest skips the rebuild.
PERFBENCH_COMMIT=src-$( (find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print
	echo ./perfbench/reference.json) | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-12)
export PERFBENCH_COMMIT
if [[ "$(cat "$out/built" 2>/dev/null)" != "$PERFBENCH_COMMIT" ]]; then
	rm -f "$out/built"
	go build -o "$out/leosim" ./cmd/leosim >&2
	(cd perfbench && go build -o "$out/perfbench" .) >&2
	echo "$PERFBENCH_COMMIT" >"$out/built"
fi

exec "$out/perfbench" -leosim "$out/leosim" -workdir "$out" "$@"
