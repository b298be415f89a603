package multilevel

import (
	"math"
	"sort"
	"sync"

	"geoprocmap/internal/units"
)

// proposal is one candidate local-search step found by the proposal phase:
// either move v to site (peer == -1) or swap v with peer. delta is the
// objective change evaluated against the pass's placement snapshot.
type proposal struct {
	delta units.Cost
	v     int
	peer  int
	site  int
}

// refiner runs the uncoarsening local search: per pass, a parallel
// proposal phase computes every vertex's best admissible move/swap against
// a read-only placement snapshot, the proposals are reduced into a single
// (gain, lowest-id) order, and a sequential commit phase re-validates each
// winner against the live placement before applying it.
//
// Determinism at any worker count: proposals are pure functions of the
// snapshot, workers own contiguous vertex ranges whose buffers are
// concatenated in range order, and the sort's tie-breaks (vertex id, then
// peer, then site) leave no equal elements — so the commit sequence, and
// therefore the placement, is byte-identical whether one goroutine
// proposed or sixteen did.
//
// Only boundary vertices are scanned: a vertex whose neighbours all share
// its site, on a quiet site, has no improving step (see interior), so
// skipping it leaves the proposal list unchanged element for element.
type refiner struct {
	in      *Instance
	workers int
	passes  int

	// Row-major copies of LT and BT (pair (k, l) at k*m+l), read by the
	// kernel in place of mat.At.
	m      int
	lt, bt []float64
	// quiet[k]: every pair touching site k is at least as slow as k's
	// intra pair, so re-pricing an edge internal to k at any other site
	// cannot lower its cost. quietSelf[k]: k's intra pair is the cheapest
	// intra pair, the same guarantee for absorbed self traffic.
	quiet, quietSelf []bool

	// Per-level wiring (set by attach).
	g       *Graph
	pin     []int
	allowed [][]int

	load  []int
	scans []scan
	props []proposal

	moves, swaps, totalPasses int
}

// scan is one proposal worker's reusable state, reset with [:0] per use.
type scan struct {
	props []proposal
	// cur holds the current-site cost of each edge incident to the vertex
	// being scanned: out edges, then in edges, as bestStep visits them.
	cur []units.Cost
}

func newRefiner(in *Instance, workers, passes int) *refiner {
	m := in.M()
	r := &refiner{
		in:        in,
		workers:   workers,
		passes:    passes,
		m:         m,
		lt:        make([]float64, m*m),
		bt:        make([]float64, m*m),
		quiet:     make([]bool, m),
		quietSelf: make([]bool, m),
		load:      make([]int, m),
		scans:     make([]scan, workers),
	}
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			r.lt[k*m+l] = in.LT.At(k, l)
			r.bt[k*m+l] = in.BT.At(k, l)
		}
	}
	// Each test is written !(a >= b) so a NaN entry disqualifies the site;
	// a non-positive bandwidth does too, since vol/bt is only monotone in
	// bt over positive rates.
	for k := 0; k < m; k++ {
		ltkk, btkk := r.lt[k*m+k], r.bt[k*m+k]
		quiet, quietSelf := btkk > 0, btkk > 0
		for s := 0; s < m; s++ {
			ks, sk, ss := k*m+s, s*m+k, s*m+s
			if !(r.lt[ks] >= ltkk) || !(r.lt[sk] >= ltkk) ||
				!(r.bt[ks] <= btkk) || !(r.bt[sk] <= btkk) || !(r.bt[ks] > 0) || !(r.bt[sk] > 0) {
				quiet = false
			}
			if !(r.lt[ss] >= ltkk) || !(r.bt[ss] <= btkk) || !(r.bt[ss] > 0) {
				quietSelf = false
			}
		}
		r.quiet[k], r.quietSelf[k] = quiet, quietSelf
	}
	return r
}

// linkCost is Instance.linkCost over the flat matrices.
//
//geolint:allocfree
func (r *refiner) linkCost(k, l int, vol, msgs float64) units.Cost {
	i := k*r.m + l
	return alphaBeta(r.lt[i], r.bt[i], vol, msgs)
}

// attach points the refiner at one hierarchy level.
func (r *refiner) attach(lv *level) {
	r.g = lv.g
	r.pin = lv.pin
	r.allowed = lv.allowed
}

// refine improves pl in place with up to r.passes proposal/commit sweeps,
// stopping early when a sweep applies nothing.
func (r *refiner) refine(pl []int) {
	for i := range r.load {
		r.load[i] = 0
	}
	for v, s := range pl {
		r.load[s] += r.g.weight[v]
	}
	for pass := 0; pass < r.passes; pass++ {
		// Deltas are exact per proposal but the commit accumulates them
		// incrementally; re-anchor the tolerance on the true objective
		// each pass so FP drift cannot masquerade as improvement.
		tol := RefineTol(r.in.cost(r.g, pl))
		r.propose(pl, tol)
		if r.commit(pl, tol) == 0 {
			break
		}
		r.totalPasses++
	}
}

// propose fans the proposal scan out over contiguous vertex ranges.
func (r *refiner) propose(pl []int, tol units.Cost) {
	n := r.g.n
	workers := r.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		r.proposeRange(pl, 0, n, tol, &r.scans[0])
		r.props = r.props[:0]
		r.props = append(r.props, r.scans[0].props...)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * n / workers
			hi := (w + 1) * n / workers
			r.proposeRange(pl, lo, hi, tol, &r.scans[w])
		}(w)
	}
	wg.Wait()
	r.props = r.props[:0]
	for w := 0; w < workers; w++ {
		r.props = append(r.props, r.scans[w].props...)
	}
}

// proposeRange is the refinement inner loop: for every unpinned boundary
// vertex in [lo, hi) it evaluates all admissible site moves and neighbor
// swaps against the snapshot and records the best one in sc.props if it
// clears the tolerance. All evaluation is O(degree) arithmetic over the
// CSR arrays; sc's buffers are reset to [:0] each call, so steady-state
// passes do not allocate — BenchmarkRefineMove* and the bench-alloc gate
// measure exactly this path.
//
//geolint:allocfree
func (r *refiner) proposeRange(pl []int, lo, hi int, tol units.Cost, sc *scan) {
	sc.props = sc.props[:0]
	for v := lo; v < hi; v++ {
		if r.pin[v] >= 0 || r.interior(pl, v) {
			continue
		}
		p, ok := r.bestStep(pl, v, tol, sc)
		if ok {
			sc.props = append(sc.props, p)
		}
	}
}

// interior reports whether v can be skipped: its site is quiet, its self
// traffic (if any) sits on a quietSelf site, and every neighbour shares
// its site. Such a vertex has no improving step. Traffic is non-negative,
// so each incident edge's re-priced term new − old is ≥ 0 (or NaN) under
// the quiet inequalities — IEEE rounding is monotone — and so is their
// sum, which therefore never clears the −tol bound; and trySwap rejects
// every neighbour that shares v's site. bestStep would propose nothing.
//
//geolint:allocfree
func (r *refiner) interior(pl []int, v int) bool {
	g := r.g
	sv := pl[v]
	if !r.quiet[sv] || (!r.quietSelf[sv] && (g.selfVol[v] != 0 || g.selfMsgs[v] != 0)) {
		return false
	}
	for _, e := range g.out.Row(v) {
		if pl[e.Peer] != sv {
			return false
		}
	}
	for _, e := range g.in.Row(v) {
		if pl[e.Peer] != sv {
			return false
		}
	}
	return true
}

// bestStep returns v's best admissible step against the snapshot: the
// minimum-delta choice over all site moves (sites ascending) and all
// neighbor swaps (peers ascending), strict improvement only. The scan
// order plus strict < make the winner independent of evaluation order.
//
// Each move delta is moveDelta's sum, term for term, with the current-site
// cost of every edge priced once into sc.cur instead of once per site.
//
//geolint:allocfree
func (r *refiner) bestStep(pl []int, v int, tol units.Cost, sc *scan) (proposal, bool) {
	g := r.g
	sv := pl[v]
	w := g.weight[v]
	out, in := g.out.Row(v), g.in.Row(v)
	cur := sc.cur[:0]
	for _, e := range out {
		cur = append(cur, r.linkCost(sv, pl[e.Peer], e.Volume, e.Msgs))
	}
	for _, e := range in {
		cur = append(cur, r.linkCost(pl[e.Peer], sv, e.Volume, e.Msgs))
	}
	sc.cur = cur
	curOut, curIn := cur[:len(out)], cur[len(out):]
	selfVol, selfMsgs := g.selfVol[v], g.selfMsgs[v]
	self := selfVol != 0 || selfMsgs != 0
	var curSelf units.Cost
	if self {
		curSelf = r.linkCost(sv, sv, selfVol, selfMsgs)
	}
	best := proposal{delta: -tol, v: v, peer: -1, site: -1}
	found := false
	for s := 0; s < r.m; s++ {
		if s == sv || !allowedOn(-1, r.allowed[v], s) {
			continue
		}
		if r.load[s]+w > r.in.Capacity[s] {
			continue
		}
		var d units.Cost
		for i, e := range out {
			d += r.linkCost(s, pl[e.Peer], e.Volume, e.Msgs) - curOut[i]
		}
		for i, e := range in {
			d += r.linkCost(pl[e.Peer], s, e.Volume, e.Msgs) - curIn[i]
		}
		if self {
			d += r.linkCost(s, s, selfVol, selfMsgs) - curSelf
		}
		if d < best.delta {
			best.delta = d
			best.peer = -1
			best.site = s
			found = true
		}
	}
	for _, e := range out {
		if d, ok := r.trySwap(pl, v, e.Peer, best.delta); ok {
			best.delta = d
			best.peer = e.Peer
			best.site = -1
			found = true
		}
	}
	for _, e := range in {
		if d, ok := r.trySwap(pl, v, e.Peer, best.delta); ok {
			best.delta = d
			best.peer = e.Peer
			best.site = -1
			found = true
		}
	}
	return best, found
}

// trySwap evaluates the swap of v and u if it is admissible and beats the
// current bound.
//
//geolint:allocfree
func (r *refiner) trySwap(pl []int, v, u int, bound units.Cost) (units.Cost, bool) {
	if r.pin[u] >= 0 || pl[u] == pl[v] {
		return 0, false
	}
	sv, su := pl[v], pl[u]
	if !allowedOn(-1, r.allowed[v], su) || !allowedOn(-1, r.allowed[u], sv) {
		return 0, false
	}
	g := r.g
	wv, wu := g.weight[v], g.weight[u]
	if wv != wu {
		if r.load[sv]-wv+wu > r.in.Capacity[sv] || r.load[su]-wu+wv > r.in.Capacity[su] {
			return 0, false
		}
	}
	d := r.swapDelta(pl, v, u)
	if d < bound {
		return d, true
	}
	return 0, false
}

// moveDelta is the objective change of moving v to site s: its incident
// directed edges re-priced at the new site pair, plus its absorbed
// intra-vertex traffic re-priced at the new intra-site rate. O(degree).
// commit re-validates moves with it; bestStep sums the same terms in the
// same order, so a proposal's delta and its re-validation agree bitwise.
//
//geolint:allocfree
func (r *refiner) moveDelta(pl []int, v, s int) units.Cost {
	g := r.g
	sv := pl[v]
	var d units.Cost
	for _, e := range g.out.Row(v) {
		su := pl[e.Peer]
		d += r.linkCost(s, su, e.Volume, e.Msgs) - r.linkCost(sv, su, e.Volume, e.Msgs)
	}
	for _, e := range g.in.Row(v) {
		su := pl[e.Peer]
		d += r.linkCost(su, s, e.Volume, e.Msgs) - r.linkCost(su, sv, e.Volume, e.Msgs)
	}
	if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
		d += r.linkCost(s, s, g.selfVol[v], g.selfMsgs[v]) - r.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
	}
	return d
}

// swapSite is the post-swap site of vertex j when v and u trade places.
//
//geolint:allocfree
func swapSite(pl []int, j, v, u, sv, su int) int {
	switch j {
	case v:
		return su
	case u:
		return sv
	default:
		return pl[j]
	}
}

// swapDelta is the objective change of exchanging the sites of v and u,
// computed over their incident edges exactly like core.exchangeDelta: v's
// edges fully, u's edges excluding the shared (u, v) pair already counted.
//
//geolint:allocfree
func (r *refiner) swapDelta(pl []int, v, u int) units.Cost {
	g := r.g
	sv, su := pl[v], pl[u]
	var d units.Cost
	for _, e := range g.out.Row(v) {
		j := e.Peer
		d += r.linkCost(su, swapSite(pl, j, v, u, sv, su), e.Volume, e.Msgs) -
			r.linkCost(sv, pl[j], e.Volume, e.Msgs)
	}
	for _, e := range g.in.Row(v) {
		j := e.Peer
		d += r.linkCost(swapSite(pl, j, v, u, sv, su), su, e.Volume, e.Msgs) -
			r.linkCost(pl[j], sv, e.Volume, e.Msgs)
	}
	for _, e := range g.out.Row(u) {
		j := e.Peer
		if j == v {
			continue
		}
		d += r.linkCost(sv, swapSite(pl, j, v, u, sv, su), e.Volume, e.Msgs) -
			r.linkCost(su, pl[j], e.Volume, e.Msgs)
	}
	for _, e := range g.in.Row(u) {
		j := e.Peer
		if j == v {
			continue
		}
		d += r.linkCost(swapSite(pl, j, v, u, sv, su), sv, e.Volume, e.Msgs) -
			r.linkCost(pl[j], su, e.Volume, e.Msgs)
	}
	if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
		d += r.linkCost(su, su, g.selfVol[v], g.selfMsgs[v]) - r.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
	}
	if g.selfVol[u] != 0 || g.selfMsgs[u] != 0 {
		d += r.linkCost(sv, sv, g.selfVol[u], g.selfMsgs[u]) - r.linkCost(su, su, g.selfVol[u], g.selfMsgs[u])
	}
	return d
}

// commit applies the reduced proposals in (gain, lowest-id) order. Each
// proposal's delta is re-evaluated against the live placement — earlier
// commits may have consumed its gain or its capacity headroom — and only
// still-improving, still-feasible steps are applied. Returns the number of
// applied steps.
func (r *refiner) commit(pl []int, tol units.Cost) int {
	props := r.props
	sort.Slice(props, func(a, b int) bool {
		pa, pb := &props[a], &props[b]
		if pa.delta != pb.delta {
			return pa.delta < pb.delta
		}
		if pa.v != pb.v {
			return pa.v < pb.v
		}
		if pa.peer != pb.peer {
			return pa.peer < pb.peer
		}
		return pa.site < pb.site
	})
	applied := 0
	g := r.g
	for i := range props {
		p := &props[i]
		if p.peer < 0 {
			v, s := p.v, p.site
			sv := pl[v]
			w := g.weight[v]
			if s == sv || r.load[s]+w > r.in.Capacity[s] {
				continue
			}
			if d := r.moveDelta(pl, v, s); d < -tol {
				pl[v] = s
				r.load[sv] -= w
				r.load[s] += w
				applied++
				r.moves++
			}
			continue
		}
		v, u := p.v, p.peer
		sv, su := pl[v], pl[u]
		if sv == su {
			continue
		}
		if !allowedOn(-1, r.allowed[v], su) || !allowedOn(-1, r.allowed[u], sv) {
			continue
		}
		wv, wu := g.weight[v], g.weight[u]
		if wv != wu {
			if r.load[sv]-wv+wu > r.in.Capacity[sv] || r.load[su]-wu+wv > r.in.Capacity[su] {
				continue
			}
		}
		if d := r.swapDelta(pl, v, u); d < -tol {
			pl[v], pl[u] = su, sv
			r.load[sv] += wu - wv
			r.load[su] += wv - wu
			applied++
			r.swaps++
		}
	}
	return applied
}

// RefineTol is the minimum improvement a local-search step must deliver,
// relative to the current objective c: an absolute threshold is vacuous
// against costs orders of magnitude above 1 (every FP-noise "improvement"
// passes, and the pass loop can churn without converging) and needlessly
// strict near zero. The floor of 1 keeps the threshold meaningful for
// near-zero objectives. This refiner and core's exchange sweep share it.
func RefineTol(c units.Cost) units.Cost {
	m := math.Abs(c.Float())
	if m < 1 {
		m = 1
	}
	return units.Cost(m).Scale(1e-12)
}
