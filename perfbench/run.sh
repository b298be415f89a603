#!/usr/bin/env bash
# Runs one benchmark workload from the root of a checkout:
#
#   bash perfbench/run.sh --workload solve_large|serve_hot|serve_mixed \
#        --seed N --seconds S --trace 0|1
#
# It builds geomapd and the two benchmark binaries from the checkout's
# sources into .bench_build/ (skipped when the sources are unchanged),
# then runs the end-to-end binary (--trace 0) or the traced ledger
# (--trace 1). The last line of standard output is the JSON result.
# Everything it writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOPROXY=off GOSUMDB=off
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"

trace=0
prev=
for arg in "$@"; do
	case "$prev" in --trace | -trace) trace=$arg ;; esac
	case "$arg" in --trace=* | -trace=*) trace=${arg#*=} ;; esac
	prev=$arg
done

digest=$(find . -path ./.bench_build -prune -o -path ./.git -prune -o \
	\( -name '*.go' -o -name go.mod \) -type f -print | LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
if [ "$(cat "$build/stamp" 2>/dev/null)" != "$digest" ]; then
	rm -f "$build/stamp"
	(cd "$root" && go build -o "$build/geomapd" ./cmd/geomapd) >&2
	(cd "$root/perfbench" && go build -o "$build/e2e" ./cmd/e2e && go build -o "$build/ledger" ./cmd/ledger) >&2
	echo "$digest" >"$build/stamp"
fi

commit="sources-sha256:$digest"
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo "$commit")
fi
export PERFBENCH_COMMIT=$commit

bin=e2e
if [ "$trace" = 1 ]; then
	bin=ledger
fi
exec "$build/$bin" --build "$build" "$@"
