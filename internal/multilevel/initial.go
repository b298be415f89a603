package multilevel

import (
	"fmt"
	"math"
	"sort"

	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// initialMapper runs the paper's group-order heuristic on the coarsest
// level, generalized to weighted super-vertices: a vertex standing for w
// processes consumes w units of a site's capacity. The κ! permutations of
// the site groups are enumerated in lexicographic rank order (capped by
// maxOrders) and the minimum-cost feasible fill wins, ties broken by lowest
// rank — the same deterministic reduction as core.GeoMapper's search, so
// the choice never depends on evaluation order.
type initialMapper struct {
	in     *Instance
	lv     *level
	refLat units.Seconds
	refBW  units.BytesPerSec

	quantity  []units.Cost
	affinity  []units.Cost
	selected  []bool
	avail     []int
	members   [][]int // vertices currently placed per site
	pl        []int
	groupDone []bool
	byWeight  []int // vertices in descending weight order (leftover repair)
	ordered   [][]int

	best     []int
	bestCost units.Cost
	found    bool
	examined int
	cap      int
}

func newInitialMapper(in *Instance, lv *level, maxOrders int) *initialMapper {
	g := lv.g
	n := g.n
	im := &initialMapper{
		in:        in,
		lv:        lv,
		quantity:  make([]units.Cost, n),
		affinity:  make([]units.Cost, n),
		selected:  make([]bool, n),
		avail:     make([]int, in.M()),
		members:   make([][]int, in.M()),
		pl:        make([]int, n),
		groupDone: make([]bool, in.M()),
		byWeight:  make([]int, n),
		ordered:   make([][]int, len(in.Groups)),
		bestCost:  units.Cost(math.Inf(1)),
		cap:       maxOrders,
	}
	im.refLat, im.refBW = in.refWeights()
	for v := 0; v < n; v++ {
		var q units.Cost
		for _, e := range g.out.Row(v) {
			q += im.weight(e.Volume, e.Msgs)
		}
		for _, e := range g.in.Row(v) {
			q += im.weight(e.Volume, e.Msgs)
		}
		im.quantity[v] = q
		im.byWeight[v] = v
	}
	sort.SliceStable(im.byWeight, func(a, b int) bool {
		return g.weight[im.byWeight[a]] > g.weight[im.byWeight[b]]
	})
	return im
}

// weight scalarizes a (vol, msgs) pair against the average inter-site link.
func (im *initialMapper) weight(vol, msgs float64) units.Cost {
	return (im.refLat.Scale(msgs) + units.Bytes(vol).Over(im.refBW)).AsCost()
}

// run enumerates group orders and returns the best feasible placement. The
// returned slice is freshly allocated.
func (im *initialMapper) run() ([]int, error) {
	k := len(im.in.Groups)
	if k == 0 {
		return nil, fmt.Errorf("multilevel: no site groups")
	}
	total := stats.FactorialInt(k)
	stats.PermutationRange(k, 0, total, func(rank int, perm []int) bool {
		for i, gi := range perm {
			im.ordered[i] = im.in.Groups[gi]
		}
		if im.fill(im.ordered) {
			c := im.in.cost(im.lv.g, im.pl)
			if c < im.bestCost {
				im.bestCost = c
				im.best = append(im.best[:0], im.pl...)
				im.found = true
			}
		}
		im.examined++
		return im.cap <= 0 || im.examined < im.cap
	})
	if !im.found {
		return nil, errInitialInfeasible
	}
	return append([]int(nil), im.best...), nil
}

var errInitialInfeasible = fmt.Errorf("multilevel: no feasible fill at this level")

// fill runs one weighted greedy packing for an ordered group sequence:
// pinned vertices first, then per group the site with the most remaining
// capacity, seeded with the heaviest-communicating admissible vertex that
// fits and grown by affinity to the vertices already on the site. Vertices
// no group could take are repaired onto the emptiest admissible site;
// returns false when some vertex fits nowhere (coarser-level weights can be
// too chunky — the caller then retries one level finer).
func (im *initialMapper) fill(orderedGroups [][]int) bool {
	g := im.lv.g
	n := g.n
	for i := range im.selected {
		im.selected[i] = false
		im.pl[i] = -1
	}
	copy(im.avail, im.in.Capacity)
	for s := range im.members {
		im.members[s] = im.members[s][:0]
	}
	remaining := n
	for v, p := range im.lv.pin {
		if p < 0 {
			continue
		}
		im.selected[v] = true
		im.place(v, p)
		remaining--
	}

	for _, group := range orderedGroups {
		if remaining == 0 {
			break
		}
		groupDone := im.groupDone[:len(group)]
		for i := range groupDone {
			groupDone[i] = false
		}
		for j := 0; j < len(group); j++ {
			site, bestAvail, bestIdx := -1, -1, -1
			for idx, s := range group {
				if !groupDone[idx] && im.avail[s] > bestAvail {
					site, bestAvail, bestIdx = s, im.avail[s], idx
				}
			}
			if site == -1 {
				break
			}
			groupDone[bestIdx] = true
			if im.avail[site] <= 0 {
				continue
			}
			if remaining == 0 {
				break
			}

			// Seed: heaviest-communicating unselected vertex that is
			// admissible on this site and fits its remaining capacity.
			seed := -1
			bestQ := units.Cost(math.Inf(-1))
			for v := 0; v < n; v++ {
				if im.selected[v] || g.weight[v] > im.avail[site] {
					continue
				}
				if !allowedOn(im.lv.pin[v], im.lv.allowed[v], site) {
					continue
				}
				if im.quantity[v] > bestQ {
					seed, bestQ = v, im.quantity[v]
				}
			}
			if seed == -1 {
				continue
			}
			im.place(seed, site)
			remaining--

			// Affinity measures attachment to everything already on the
			// site — the seed plus any vertices pinned there.
			im.rebuildAffinity(site)
			for im.avail[site] > 0 && remaining > 0 {
				next := -1
				bestA := units.Cost(math.Inf(-1))
				for v := 0; v < n; v++ {
					if im.selected[v] || g.weight[v] > im.avail[site] {
						continue
					}
					if !allowedOn(im.lv.pin[v], im.lv.allowed[v], site) {
						continue
					}
					a := im.affinity[v]
					if a > bestA || (a == bestA && next >= 0 && im.quantity[v] > im.quantity[next]) {
						next, bestA = v, a
					}
				}
				if next == -1 {
					break
				}
				im.place(next, site)
				remaining--
				im.addAffinity(next)
			}
		}
	}

	if remaining == 0 {
		return true
	}
	// Leftover repair: heaviest vertices first onto the admissible site
	// with the most remaining room; when every admissible site is full,
	// try a one-step displacement before giving up.
	for _, v := range im.byWeight {
		if im.selected[v] {
			continue
		}
		site, bestAvail := -1, g.weight[v]-1
		for s := 0; s < im.in.M(); s++ {
			if im.avail[s] > bestAvail && allowedOn(im.lv.pin[v], im.lv.allowed[v], s) {
				site, bestAvail = s, im.avail[s]
			}
		}
		if site == -1 && !im.displace(v) {
			return false
		}
		if site >= 0 {
			im.place(v, site)
		}
		remaining--
	}
	return remaining == 0
}

// displace makes room for a stranded vertex v by relocating one unpinned
// resident of an admissible site to another site with headroom — a depth-2
// augmenting step. Restricted vertices are stranded when unrestricted ones
// filled their sites greedily; one relocation resolves the common case,
// and the level-retry ladder (plus the caller's exact repair fallback)
// covers the rest. The scan order is fully deterministic.
func (im *initialMapper) displace(v int) bool {
	g := im.lv.g
	w := g.weight[v]
	for s := 0; s < im.in.M(); s++ {
		if !allowedOn(im.lv.pin[v], im.lv.allowed[v], s) {
			continue
		}
		for _, u := range im.members[s] {
			if im.lv.pin[u] >= 0 {
				continue
			}
			if im.avail[s]+g.weight[u] < w {
				continue
			}
			for s2 := 0; s2 < im.in.M(); s2++ {
				if s2 == s || im.avail[s2] < g.weight[u] {
					continue
				}
				if !allowedOn(im.lv.pin[u], im.lv.allowed[u], s2) {
					continue
				}
				im.unplace(u, s)
				im.place(u, s2)
				im.place(v, s)
				return true
			}
		}
	}
	return false
}

// unplace removes u from site s (bookkeeping inverse of place).
func (im *initialMapper) unplace(u, s int) {
	im.avail[s] += im.lv.g.weight[u]
	mem := im.members[s]
	for i, x := range mem {
		if x == u {
			copy(mem[i:], mem[i+1:])
			im.members[s] = mem[:len(mem)-1]
			break
		}
	}
}

func (im *initialMapper) place(v, site int) {
	im.pl[v] = site
	im.selected[v] = true
	im.avail[site] -= im.lv.g.weight[v]
	im.members[site] = append(im.members[site], v)
}

// rebuildAffinity recomputes every vertex's total traffic with the vertices
// already placed on site.
func (im *initialMapper) rebuildAffinity(site int) {
	for i := range im.affinity {
		im.affinity[i] = 0
	}
	for _, v := range im.members[site] {
		im.addAffinity(v)
	}
}

// addAffinity adds vertex v's traffic into the affinity array after v has
// been placed on the site currently being filled.
func (im *initialMapper) addAffinity(v int) {
	g := im.lv.g
	for _, e := range g.out.Row(v) {
		im.affinity[e.Peer] += im.weight(e.Volume, e.Msgs)
	}
	for _, e := range g.in.Row(v) {
		im.affinity[e.Peer] += im.weight(e.Volume, e.Msgs)
	}
}
