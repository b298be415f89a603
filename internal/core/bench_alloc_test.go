package core

import (
	"testing"

	"geoprocmap/internal/units"
)

// The BenchmarkAlloc* family gates the allocation discipline the allocsafe
// rule enforces statically: every //geolint:allocfree root must measure
// 0 allocs/op once its state is warm. scripts/bench_alloc.sh runs them
// with -benchmem and fails on any nonzero allocs/op.

var (
	benchCost  units.Cost
	benchPlace Placement
	benchBool  bool
)

// benchAllocProblem returns a clustered problem whose comm graph is
// already frozen, and a valid placement, so the measured loops only read.
func benchAllocProblem(b *testing.B) (*Problem, Placement) {
	b.Helper()
	p := clusteredProblem(64, 4, 11)
	p.Comm.Outgoing(0) // the first read freezes the graph
	pl := make(Placement, p.N())
	for i := range pl {
		pl[i] = i % p.M()
	}
	return p, pl
}

func BenchmarkAllocCost(b *testing.B) {
	p, pl := benchAllocProblem(b)
	benchCost = p.Cost(pl) // warm any remaining lazy state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCost = p.Cost(pl)
	}
}

func BenchmarkAllocCostParts(b *testing.B) {
	p, pl := benchAllocProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lat, bw := p.CostParts(pl)
		benchCost = lat + bw
	}
}

func BenchmarkAllocExchangeDelta(b *testing.B) {
	p, pl := benchAllocProblem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCost = exchangeDelta(p, pl, i%p.N(), (i+7)%p.N())
	}
}

func BenchmarkAllocRefinePass(b *testing.B) {
	p, pl := benchAllocProblem(b)
	base := append(Placement(nil), pl...)
	scratch := make(Placement, len(pl))
	baseCost := p.Cost(base)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, base)
		cost := baseCost
		benchBool = refinePass(p, scratch, &cost)
	}
}

func BenchmarkAllocFill(b *testing.B) {
	p, _ := benchAllocProblem(b)
	h := newHeuristicState(p)
	ordered := [][]int{{0}, {1}, {2}, {3}}
	benchPlace = h.fill(ordered) // warm members to their high-water mark
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPlace = h.fill(ordered)
	}
}
