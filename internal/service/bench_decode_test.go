package service

import (
	"encoding/json"
	"strconv"
	"testing"
)

// decodeSink and keySink keep the benchmarked calls from being
// optimized away.
var (
	decodeSink MapRequest
	keySink    string
)

// benchProcs are the pattern sizes of the decode and fingerprint
// benchmarks; 1024 is the median serving-benchmark hot request.
var benchProcs = []int{256, 1024, 4096}

// BenchmarkDecode times one /v1/map body decode: "fast" is
// decodeMapRequest, which takes the byte-level path for these bodies,
// and "reflect" the encoding/json decoder it falls back to.
func BenchmarkDecode(b *testing.B) {
	for _, procs := range benchProcs {
		body, err := json.Marshal(benchRequest(procs, 11))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("fast/procs="+strconv.Itoa(procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := decodeMapRequest(body, &decodeSink); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("reflect/procs="+strconv.Itoa(procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if decodeSink, err = referenceDecode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint times one cache key: "new" is fingerprint and
// "old" the sort.Slice reference it replaced.
func BenchmarkFingerprint(b *testing.B) {
	for _, procs := range benchProcs {
		req := benchRequest(procs, 11)
		b.Run("new/procs="+strconv.Itoa(procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = fingerprint(&req, 1)
			}
		})
		b.Run("old/procs="+strconv.Itoa(procs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				keySink = referenceFingerprint(&req, 1)
			}
		})
	}
}
