#!/usr/bin/env bash
# bench-decode: the /v1/map request path's first two layers, before and
# after. Runs BenchmarkDecode (the byte-level fast path against the
# encoding/json decoder it falls back to) and BenchmarkFingerprint (the
# bucketed, single-Write fingerprint against the sort.Slice reference it
# replaced) at 256, 1024 and 4096 processes, five times each, and writes
# the median ns/op with B/op and allocs/op to results/BENCH_decode.json,
# together with the host's core count and GOMAXPROCS.
#
# Timings on a shared host swing from run to run, so ns/op is recorded,
# not gated. The gate is on allocation counts, which do not swing: the
# script fails if a new path allocates more per op than the one it
# replaced, or if any benchmark is missing.
set -euo pipefail

cd "$(dirname "$0")/.."
out=${1:-results/BENCH_decode.json}
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench '^Benchmark(Decode|Fingerprint)$' -benchmem -benchtime 200ms -count 5 \
    ./internal/service \
    | tee "$tmp"

# Lines look like
#   BenchmarkDecode/fast/procs=1024-2   774   1600597 ns/op   354933 B/op   16 allocs/op
# where the -2 suffix is GOMAXPROCS.
awk -v out="$out" -v nproc="$(nproc)" -v gover="$(go env GOVERSION)" '
function median(list,    v, k, i, j, t) {
    k = split(list, v, " ")
    for (i = 2; i <= k; i++)
        for (j = i; j > 1 && v[j - 1] + 0 > v[j] + 0; j--) { t = v[j]; v[j] = v[j - 1]; v[j - 1] = t }
    return v[int((k + 1) / 2)]
}
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
$1 ~ /^Benchmark(Decode|Fingerprint)\// && $NF == "allocs/op" {
    name = $1
    if (match(name, /-[0-9]+$/)) { procs = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) }
    if (!(name in ns)) order[n++] = name
    ns[name] = ns[name] " " $3; bytes[name] = $5; allocs[name] = $7
}
END {
    printf "{\n  \"nproc\": %d,\n  \"gomaxprocs\": %d,\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n  \"runs\": 5,\n  \"benchmarks\": [\n", nproc, procs, gover, cpu > out
    for (i = 0; i < n; i++) {
        name = order[i]
        printf "    {\"benchmark\": \"%s\", \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
            name, median(ns[name]), bytes[name], allocs[name], (i < n - 1 ? "," : "") > out
    }
    printf "  ]\n}\n" > out
    bad = ""
    for (p = 256; p <= 4096; p *= 4) {
        pairs[1] = "BenchmarkDecode/fast BenchmarkDecode/reflect"
        pairs[2] = "BenchmarkFingerprint/new BenchmarkFingerprint/old"
        for (q = 1; q <= 2; q++) {
            split(pairs[q], ab, " ")
            a = ab[1] "/procs=" p; b = ab[2] "/procs=" p
            if (!(a in allocs) || !(b in allocs)) { bad = bad " missing:" a "|" b; continue }
            if (allocs[a] + 0 > allocs[b] + 0) bad = bad " " a "(" allocs[a] ">" allocs[b] ")"
        }
    }
    if (bad != "") { print "bench-decode:" bad > "/dev/stderr"; exit 1 }
}
' "$tmp"

echo "bench-decode: $(grep -c '"benchmark"' "$out") benchmarks -> $out"
