package multilevel

import (
	"testing"

	"geoprocmap/internal/units"
)

// benchRefiner builds a mid-size level-0 refinement state: 4096 vertices,
// 16 sites, ring+stride+random pattern — the scale the multilevel-smoke
// target solves. The placement is contiguous blocks, or with striped set
// v mod 16, which puts every vertex's ring neighbours on other sites.
// Returned ready to propose: loads computed, buffers at their high-water
// marks.
func benchRefiner(b *testing.B, striped bool) (*refiner, []int, units.Cost) {
	b.Helper()
	in := testInstance(b, 4096, 16, false, false)
	lv := &level{g: in.G, pin: in.Pin, allowed: normalizeAllowed(in.Allowed, in.G.n)}
	r := newRefiner(in, 1, 1)
	r.attach(lv)
	pl := make([]int, in.G.N())
	for v := range pl {
		pl[v] = (v * in.M()) / in.G.N()
		if striped {
			pl[v] = v % in.M()
		}
	}
	for v, s := range pl {
		r.load[s] += in.G.Weight(v)
	}
	tol := RefineTol(in.Cost(pl))
	r.proposeRange(pl, 0, in.G.N(), tol, &r.scans[0])
	return r, pl, tol
}

var (
	benchCost  units.Cost
	benchProps int
)

// BenchmarkRefineMoveDelta is the headline ns/move figure tracked in
// results/BENCH_refine.json: one O(degree) move-delta evaluation.
func BenchmarkRefineMoveDelta(b *testing.B) {
	r, pl, _ := benchRefiner(b, false)
	n, m := r.g.n, r.in.M()
	b.ReportAllocs()
	b.ResetTimer()
	var acc units.Cost
	for i := 0; i < b.N; i++ {
		v := i % n
		acc += r.moveDelta(pl, v, (pl[v]+1+i%(m-1))%m)
	}
	benchCost = acc
}

// BenchmarkRefineMoveSwap is one O(degree) swap-delta evaluation.
func BenchmarkRefineMoveSwap(b *testing.B) {
	r, pl, _ := benchRefiner(b, false)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	var acc units.Cost
	for i := 0; i < b.N; i++ {
		v := i % n
		acc += r.swapDelta(pl, v, (v+n/2)%n)
	}
	benchCost = acc
}

// BenchmarkRefineMoveBestStep is one full per-vertex candidate scan: every
// admissible site move plus every neighbor swap.
func BenchmarkRefineMoveBestStep(b *testing.B) {
	r, pl, tol := benchRefiner(b, false)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	var acc units.Cost
	for i := 0; i < b.N; i++ {
		p, ok := r.bestStep(pl, i%n, tol, &r.scans[0])
		if ok {
			acc += p.delta
		}
	}
	benchCost = acc
}

// BenchmarkRefineMoveProposeSweep is one whole proposal sweep over the
// 4096-vertex graph (divide ns/op by 4096 for the per-vertex figure).
func BenchmarkRefineMoveProposeSweep(b *testing.B) { benchSweep(b, false) }

// BenchmarkRefineMoveProposeSweepStriped is the proposal sweep with every
// vertex's ring neighbours on other sites, so no vertex is skipped and
// ns/op measures the per-vertex candidate scan alone.
func BenchmarkRefineMoveProposeSweepStriped(b *testing.B) { benchSweep(b, true) }

// BenchmarkAllocRefinePropose gates the refinement inner loop in the
// bench-alloc zero-allocation check, alongside the other
// //geolint:allocfree roots.
func BenchmarkAllocRefinePropose(b *testing.B) { benchSweep(b, false) }

func benchSweep(b *testing.B, striped bool) {
	r, pl, tol := benchRefiner(b, striped)
	n := r.g.n
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.proposeRange(pl, 0, n, tol, &r.scans[0])
	}
	benchProps = len(r.scans[0].props)
}
