package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"geoprocmap/internal/mat"
	"geoprocmap/internal/multilevel"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// GeoMapper implements the paper's Geo-distributed process-mapping
// algorithm (Algorithm 1):
//
//  1. cluster the M sites into κ groups with K-means over their physical
//     coordinates (grouping optimization, Section 4.2);
//  2. for every order θ of the κ groups, greedily build a placement: pin
//     constrained processes first, then walk groups in order and fill each
//     group's sites — largest remaining capacity first — starting from the
//     globally heaviest-communicating unselected process and repeatedly
//     adding the unselected process with the heaviest communication to the
//     processes already in the site;
//  3. keep the order whose placement has the minimum cost (Formula 4).
//
// The complexity is O(κ!·N²); the grouping step keeps κ small (the paper
// recommends κ ≤ 5) so the order search stays tractable for large M.
type GeoMapper struct {
	// Kappa is the number of K-means site groups κ. Zero selects the
	// default of min(M, 4). Values above MaxKappa are rejected to keep the
	// κ! order enumeration bounded.
	Kappa int
	// Seed drives the K-means initialization.
	Seed int64
	// DisableGrouping skips the K-means step and treats every site as its
	// own group (used by the ablation study). The order search then
	// enumerates M! site orders, so it is only usable for small M.
	DisableGrouping bool
	// SingleOrder, when true, evaluates only the identity group order
	// instead of searching all κ! orders (used by the ablation study).
	SingleOrder bool
	// RefinePasses, when positive, polishes the best placement with up to
	// that many ExchangeRefine sweeps on the true cost function. This is
	// an extension beyond the paper's Algorithm 1 (which returns the
	// packing result directly); each sweep is O(N²·deg) so it trades
	// overhead for solution quality, quantified by
	// BenchmarkAblationRefinement.
	RefinePasses int
	// Workers is the number of goroutines evaluating group orders. The κ!
	// orders are embarrassingly parallel (each evaluation owns its own
	// heuristicState) and the reduction — minimum cost, ties broken by
	// lowest lexicographic permutation rank — is deterministic, so the
	// result is byte-identical for every worker count. Zero selects
	// GOMAXPROCS; 1 runs the search serially on the calling goroutine.
	Workers int
}

// MaxKappa bounds the group count so κ! stays tractable.
const MaxKappa = 8

// Name implements Mapper.
func (g *GeoMapper) Name() string { return "Geo-distributed" }

// Map implements Mapper. It returns the best placement found across all
// κ! group orders. The result is byte-identical for identical
// problems at any worker count — the contract TestSeedDeterminism and the
// serve-smoke digest gate enforce.
//
//geolint:deterministic
func (g *GeoMapper) Map(p *Problem) (Placement, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	kappa := g.Kappa
	if kappa == 0 {
		kappa = 4
	}
	if kappa < 1 {
		return nil, fmt.Errorf("core: kappa = %d, want >= 1", kappa)
	}
	if kappa > MaxKappa {
		return nil, fmt.Errorf("core: kappa = %d exceeds MaxKappa = %d; the κ! order search would be intractable", kappa, MaxKappa)
	}

	var groups [][]int
	if g.DisableGrouping {
		if p.M() > MaxKappa {
			return nil, fmt.Errorf("core: grouping disabled with M = %d sites; order search over M! orders is intractable (max %d)", p.M(), MaxKappa)
		}
		for j := 0; j < p.M(); j++ {
			groups = append(groups, []int{j})
		}
	} else {
		var err error
		groups, err = GroupSites(p.PC, kappa, g.Seed)
		if err != nil {
			return nil, err
		}
	}

	best, err := g.searchOrders(p, groups)
	if err != nil {
		return nil, err
	}
	if g.RefinePasses > 0 {
		ExchangeRefine(p, best, g.RefinePasses)
	}
	return best, nil
}

// searchOrders runs the κ! group-order search and returns the best
// feasible placement. The search space is the lexicographic rank order of
// group permutations; the winner is the minimum-cost placement with ties
// broken by lowest rank, so every worker count — including the serial
// path — selects the same order, byte for byte.
func (g *GeoMapper) searchOrders(p *Problem, groups [][]int) (Placement, error) {
	total := stats.FactorialInt(len(groups))
	if g.SingleOrder {
		total = 1 // rank 0 is the identity order
	}
	workers := g.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //geolint:detsource worker count only; the rank-range reduction makes the result identical at any count
	}
	if workers > total {
		workers = total
	}
	if workers == 1 {
		// Serial path: one range covering the whole rank space, evaluated
		// on the calling goroutine exactly as the pre-parallel code did.
		return newOrderSearch(p, groups).runRange(0, total).placement()
	}

	// Split [0, κ!) into contiguous rank ranges, one per worker. Each
	// worker owns a private heuristicState (the fill buffers are per-state,
	// so nothing is shared beyond the read-only problem and groups).
	results := make([]rangeResult, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			lo := w * total / workers
			hi := (w + 1) * total / workers
			results[w] = newOrderSearch(p, groups).runRange(lo, hi)
		}(w)
	}
	wg.Wait()

	// Deterministic reduction: minimum cost; on an exact cost tie the
	// lowest rank wins, matching the serial loop's keep-first behavior.
	var best rangeResult
	for _, r := range results {
		if r.best == nil {
			continue
		}
		if best.best == nil || r.bestCost < best.bestCost ||
			(r.bestCost == best.bestCost && r.bestRank < best.bestRank) { //geolint:ignore floatcmp exact tie-break: equal costs must fall through to the rank comparison or the winner would depend on worker scheduling
			best = r
		}
	}
	return best.placement()
}

// rangeResult summarizes one contiguous rank range: the best feasible
// placement found (nil when the range produced none), its cost and rank.
type rangeResult struct {
	best     Placement
	bestCost units.Cost
	bestRank int
}

// placement returns the range's winner, or an error when no order in it
// was feasible.
func (r rangeResult) placement() (Placement, error) {
	if r.best == nil {
		return nil, fmt.Errorf("core: no placement produced")
	}
	return r.best, nil
}

// orderSearch evaluates group orders on one goroutine with a private
// heuristicState.
type orderSearch struct {
	p       *Problem
	groups  [][]int
	h       *heuristicState
	ordered [][]int
	res     rangeResult
}

func newOrderSearch(p *Problem, groups [][]int) *orderSearch {
	return &orderSearch{
		p:       p,
		groups:  groups,
		h:       newHeuristicState(p),
		ordered: make([][]int, len(groups)),
		res:     rangeResult{bestCost: units.Cost(math.Inf(1)), bestRank: -1},
	}
}

// runRange evaluates every order with rank in [lo, hi).
func (s *orderSearch) runRange(lo, hi int) rangeResult {
	stats.PermutationRange(len(s.groups), lo, hi, s.tryOrder)
	return s.res
}

// tryOrder is the per-order body of Algorithm 1's outer loop: greedy fill,
// site-set repair, cost comparison. Orders whose repair fails are
// infeasible and skipped. It always asks PermutationRange to continue.
func (s *orderSearch) tryOrder(rank int, perm []int) bool {
	for i, gi := range perm {
		s.ordered[i] = s.groups[gi]
	}
	pl := s.h.fill(s.ordered)
	if s.p.HasSiteSets() {
		// Multi-site restrictions can strand processes the greedy
		// packing could not fit; relocate via augmenting paths.
		if err := RepairLeftovers(s.p, pl); err != nil {
			return true
		}
	}
	if c := s.p.Cost(pl); c < s.res.bestCost {
		s.res.bestCost = c
		s.res.bestRank = rank
		s.res.best = append(s.res.best[:0], pl...)
	}
	return true
}

// ExchangeRefine polishes pl in place with up to passes sweeps of
// first-improvement pairwise exchanges of unpinned, mutually-admissible
// processes, stopping early after a sweep that applies nothing, and
// returns the cost of the result. Each sweep carries the cost
// incrementally; FP drift compounds across sweeps, so the cost is re-synced
// with Problem.Cost after every improving sweep, before the next sweep's
// improvement comparisons and before the caller trusts it.
func ExchangeRefine(p *Problem, pl Placement, passes int) units.Cost {
	cost := p.Cost(pl)
	for pass := 0; pass < passes; pass++ {
		if !refinePass(p, pl, &cost) {
			break
		}
		cost = p.Cost(pl)
	}
	return cost
}

// refinePass applies one sweep of first-improvement pairwise exchanges of
// unpinned, mutually-admissible processes, updating pl and cost in place,
// and reports whether any exchange was applied. An exchange must improve
// the cost by more than multilevel.RefineTol of the current cost.
//
//geolint:allocfree
func refinePass(p *Problem, pl Placement, cost *units.Cost) bool {
	n := p.N()
	improved := false
	for a := 0; a < n; a++ {
		if p.Constraint[a] != Unconstrained {
			continue
		}
		for b := a + 1; b < n; b++ {
			if p.Constraint[b] != Unconstrained || pl[a] == pl[b] {
				continue
			}
			if !p.AllowedOn(a, pl[b]) || !p.AllowedOn(b, pl[a]) {
				continue
			}
			delta := exchangeDelta(p, pl, a, b)
			if delta < -multilevel.RefineTol(*cost) {
				pl[a], pl[b] = pl[b], pl[a]
				*cost += delta
				improved = true
			}
		}
	}
	return improved
}

// exchangeDelta is the cost change of swapping the sites of processes a
// and b, computed locally over their incident edges. It runs O(N²) times
// per refinement sweep; the site/edge closures below are called directly
// and never escape, so they stay on the stack.
//
//geolint:allocfree
func exchangeDelta(p *Problem, pl Placement, a, b int) units.Cost {
	sa, sb := pl[a], pl[b]
	site := func(j int) int {
		switch j {
		case a:
			return sb
		case b:
			return sa
		default:
			return pl[j]
		}
	}
	var delta units.Cost
	edge := func(i, j int, vol, msgs float64) {
		oldSi, oldSj := pl[i], pl[j]
		newSi, newSj := site(i), site(j)
		delta -= (p.Latency(oldSi, oldSj).Scale(msgs) + units.Bytes(vol).Over(p.Bandwidth(oldSi, oldSj))).AsCost()
		delta += (p.Latency(newSi, newSj).Scale(msgs) + units.Bytes(vol).Over(p.Bandwidth(newSi, newSj))).AsCost()
	}
	for _, e := range p.Comm.Outgoing(a) {
		edge(a, e.Peer, e.Volume, e.Msgs)
	}
	for _, e := range p.Comm.Incoming(a) {
		edge(e.Peer, a, e.Volume, e.Msgs)
	}
	for _, e := range p.Comm.Outgoing(b) {
		if e.Peer != a {
			edge(b, e.Peer, e.Volume, e.Msgs)
		}
	}
	for _, e := range p.Comm.Incoming(b) {
		if e.Peer != a {
			edge(e.Peer, b, e.Volume, e.Msgs)
		}
	}
	return delta
}

// heuristicState carries the reusable buffers of the per-order greedy fill,
// so the κ! order evaluations do not reallocate.
type heuristicState struct {
	p        *Problem
	quantity []units.Cost // static per-process communication quantity
	refLat   units.Seconds
	refBW    units.BytesPerSec

	selected  []bool
	affinity  []units.Cost
	avail     mat.IntVec
	members   [][]int // processes currently placed per site
	pl        Placement
	groupDone []bool // scratch for fill's site-selection loop, len M
}

func newHeuristicState(p *Problem) *heuristicState {
	n := p.N()
	refLat, refBW := multilevel.ReferenceWeights(p.LT, p.BT)
	h := &heuristicState{
		p:         p,
		quantity:  make([]units.Cost, n),
		refLat:    refLat,
		refBW:     refBW,
		selected:  make([]bool, n),
		affinity:  make([]units.Cost, n),
		avail:     make(mat.IntVec, p.M()),
		members:   make([][]int, p.M()),
		pl:        make(Placement, n),
		groupDone: make([]bool, p.M()),
	}
	for i := 0; i < n; i++ {
		var q units.Cost
		p.Comm.Neighbors(i, func(_ int, vol, msgs float64) {
			q += h.weight(vol, msgs)
		})
		h.quantity[i] = q
	}
	return h
}

// weight converts a (volume, msgs) pair into a scalar commensurate with
// the α–β cost on an average inter-site link, so "heaviest communication
// quantity" accounts for both the bandwidth and the latency term.
func (h *heuristicState) weight(vol, msgs float64) units.Cost {
	return (h.refLat.Scale(msgs) + units.Bytes(vol).Over(h.refBW)).AsCost()
}

// fill runs the greedy body of Algorithm 1 (lines 3–15) for one ordered
// group sequence and returns the resulting placement. The returned slice is
// reused by subsequent calls; callers must clone it to retain it. Every
// buffer fill touches lives on the state, so the thousands of per-order
// evaluations a worker runs do not allocate.
//
//geolint:allocfree
func (h *heuristicState) fill(orderedGroups [][]int) Placement {
	p := h.p
	n := p.N()
	for i := range h.selected {
		h.selected[i] = false
		h.pl[i] = Unconstrained
	}
	copy(h.avail, p.Capacity)
	for j := range h.members {
		h.members[j] = h.members[j][:0]
	}
	remaining := n

	// Lines 4–6: pin constrained processes and reduce availability.
	for i, c := range p.Constraint {
		if c == Unconstrained {
			continue
		}
		h.pl[i] = c
		h.selected[i] = true
		h.avail[c]--
		h.members[c] = append(h.members[c], i)
		remaining--
	}

	// Lines 7–15: walk groups in order, filling sites one at a time.
	for _, group := range orderedGroups {
		if remaining == 0 {
			break
		}
		// Each iteration picks the unselected site in the group with the
		// most available nodes (line 10). The scratch buffer lives on the
		// state: each worker runs thousands of orders through fill, which
		// must not allocate per order.
		groupDone := h.groupDone[:len(group)]
		for i := range groupDone {
			groupDone[i] = false
		}
		for j := 0; j < len(group); j++ {
			site, bestAvail, bestIdx := -1, -1, -1
			for idx, s := range group {
				if !groupDone[idx] && h.avail[s] > bestAvail {
					site, bestAvail, bestIdx = s, h.avail[s], idx
				}
			}
			if site == -1 {
				break
			}
			groupDone[bestIdx] = true
			if h.avail[site] == 0 {
				continue
			}
			if remaining == 0 {
				break
			}

			// Line 9: seed with the globally heaviest unselected process
			// admissible on this site.
			seed := -1
			bestQ := units.Cost(math.Inf(-1))
			for i := 0; i < n; i++ {
				if !h.selected[i] && h.quantity[i] > bestQ && p.AllowedOn(i, site) {
					seed, bestQ = i, h.quantity[i]
				}
			}
			if seed == -1 {
				continue // no admissible process for this site
			}
			h.place(seed, site)
			remaining--

			// Lines 12–14: fill the rest of the site with the processes
			// most attached to what is already there.
			h.rebuildAffinity(site)
			for h.avail[site] > 0 && remaining > 0 {
				next := -1
				bestA := units.Cost(math.Inf(-1))
				for i := 0; i < n; i++ {
					if h.selected[i] || !p.AllowedOn(i, site) {
						continue
					}
					a := h.affinity[i]
					if a > bestA || (a == bestA && next >= 0 && h.quantity[i] > h.quantity[next]) { //geolint:ignore floatcmp exact tie-break: equal affinities are identical sums (commonly both 0); an epsilon would perturb the mapping
						next, bestA = i, a
					}
				}
				if next == -1 {
					break // remaining processes are inadmissible here
				}
				h.place(next, site)
				remaining--
				h.addAffinity(next)
			}
		}
	}
	return h.pl
}

// place assigns process i to site and updates capacity bookkeeping.
func (h *heuristicState) place(i, site int) {
	h.pl[i] = site
	h.selected[i] = true
	h.avail[site]--
	//geolint:allocsite amortized: members is reset to [:0] per fill, so growth converges to the per-site high-water mark
	h.members[site] = append(h.members[site], i)
}

// rebuildAffinity recomputes, for every process, its total communication
// weight with the processes already placed at site.
func (h *heuristicState) rebuildAffinity(site int) {
	for i := range h.affinity {
		h.affinity[i] = 0
	}
	for _, s := range h.members[site] {
		h.addAffinity(s)
	}
}

// addAffinity adds process s's traffic into the affinity array after s has
// been placed at the site currently being filled.
func (h *heuristicState) addAffinity(s int) {
	h.p.Comm.Neighbors(s, func(j int, vol, msgs float64) {
		h.affinity[j] += h.weight(vol, msgs)
	})
}
