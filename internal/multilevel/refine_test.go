package multilevel

import (
	"math"
	"testing"

	"geoprocmap/internal/mat"
	"geoprocmap/internal/stats"
	"geoprocmap/internal/units"
)

// refMoveDelta is the reference move delta: every incident edge priced at
// the new and at the current site through Instance.linkCost (mat.At).
func refMoveDelta(in *Instance, g *Graph, pl []int, v, s int) units.Cost {
	sv := pl[v]
	var d units.Cost
	for _, e := range g.out.Row(v) {
		su := pl[e.Peer]
		d += in.linkCost(s, su, e.Volume, e.Msgs) - in.linkCost(sv, su, e.Volume, e.Msgs)
	}
	for _, e := range g.in.Row(v) {
		su := pl[e.Peer]
		d += in.linkCost(su, s, e.Volume, e.Msgs) - in.linkCost(su, sv, e.Volume, e.Msgs)
	}
	if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
		d += in.linkCost(s, s, g.selfVol[v], g.selfMsgs[v]) - in.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
	}
	return d
}

// refSwapDelta is swapDelta through Instance.linkCost.
func refSwapDelta(in *Instance, g *Graph, pl []int, v, u int) units.Cost {
	sv, su := pl[v], pl[u]
	var d units.Cost
	for _, e := range g.out.Row(v) {
		j := e.Peer
		d += in.linkCost(su, swapSite(pl, j, v, u, sv, su), e.Volume, e.Msgs) - in.linkCost(sv, pl[j], e.Volume, e.Msgs)
	}
	for _, e := range g.in.Row(v) {
		j := e.Peer
		d += in.linkCost(swapSite(pl, j, v, u, sv, su), su, e.Volume, e.Msgs) - in.linkCost(pl[j], sv, e.Volume, e.Msgs)
	}
	for _, e := range g.out.Row(u) {
		if j := e.Peer; j != v {
			d += in.linkCost(sv, swapSite(pl, j, v, u, sv, su), e.Volume, e.Msgs) - in.linkCost(su, pl[j], e.Volume, e.Msgs)
		}
	}
	for _, e := range g.in.Row(u) {
		if j := e.Peer; j != v {
			d += in.linkCost(swapSite(pl, j, v, u, sv, su), sv, e.Volume, e.Msgs) - in.linkCost(pl[j], su, e.Volume, e.Msgs)
		}
	}
	if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
		d += in.linkCost(su, su, g.selfVol[v], g.selfMsgs[v]) - in.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
	}
	if g.selfVol[u] != 0 || g.selfMsgs[u] != 0 {
		d += in.linkCost(sv, sv, g.selfVol[u], g.selfMsgs[u]) - in.linkCost(su, su, g.selfVol[u], g.selfMsgs[u])
	}
	return d
}

// refPropose is the reference proposal scan: every unpinned vertex, no
// boundary skip, each site's move delta computed with both terms. r
// supplies only the level wiring and the site loads.
func refPropose(r *refiner, pl []int, tol units.Cost) []proposal {
	in, g := r.in, r.g
	var props []proposal
	for v := 0; v < g.n; v++ {
		if r.pin[v] >= 0 {
			continue
		}
		sv := pl[v]
		best := proposal{delta: -tol, v: v, peer: -1, site: -1}
		found := false
		for s := 0; s < in.M(); s++ {
			if s == sv || !allowedOn(-1, r.allowed[v], s) || r.load[s]+g.weight[v] > in.Capacity[s] {
				continue
			}
			if d := refMoveDelta(in, g, pl, v, s); d < best.delta {
				best = proposal{delta: d, v: v, peer: -1, site: s}
				found = true
			}
		}
		swap := func(u int) {
			su := pl[u]
			if r.pin[u] >= 0 || su == sv || !allowedOn(-1, r.allowed[v], su) || !allowedOn(-1, r.allowed[u], sv) {
				return
			}
			wv, wu := g.weight[v], g.weight[u]
			if wv != wu && (r.load[sv]-wv+wu > in.Capacity[sv] || r.load[su]-wu+wv > in.Capacity[su]) {
				return
			}
			if d := refSwapDelta(in, g, pl, v, u); d < best.delta {
				best = proposal{delta: d, v: v, peer: u, site: -1}
				found = true
			}
		}
		for _, e := range g.out.Row(v) {
			swap(e.Peer)
		}
		for _, e := range g.in.Row(v) {
			swap(e.Peer)
		}
		if found {
			props = append(props, best)
		}
	}
	return props
}

// withMatrices returns a copy of base whose LT/BT are replaced by edit's
// changes to copies of base's.
func withMatrices(base *Instance, edit func(lt, bt *mat.Matrix)) *Instance {
	in := *base
	in.LT, in.BT = base.LT.Clone(), base.BT.Clone()
	edit(in.LT, in.BT)
	return &in
}

// neighboursShareSite reports whether every neighbour of v sits on v's site.
func neighboursShareSite(g *Graph, pl []int, v int) bool {
	for _, e := range g.out.Row(v) {
		if pl[e.Peer] != pl[v] {
			return false
		}
	}
	for _, e := range g.in.Row(v) {
		if pl[e.Peer] != pl[v] {
			return false
		}
	}
	return true
}

// TestProposeMatchesReference checks the boundary-only, flat-matrix
// proposal scan against the reference scan over every unpinned vertex:
// the same proposals in the same order, each delta equal to the bit. It
// covers an intra-site-dominant network (every site quiet), one with
// unequal intra rates and an inter-site link cheaper than its endpoints'
// intra pairs, and one with a NaN latency, each on level 0 and on a
// coarse level carrying self traffic, at one and at four workers.
func TestProposeMatchesReference(t *testing.T) {
	const n, m = 512, 8
	base := testInstance(t, n, m, true, true)
	h := hierarchyFor(base, n, m)
	if len(h) < 2 {
		t.Fatalf("expected a coarse level, got %d levels", len(h))
	}
	coarse := h[1]
	hasSelf := false
	for v := 0; v < coarse.g.n; v++ {
		hasSelf = hasSelf || coarse.g.selfVol[v] != 0
	}
	if !hasSelf {
		t.Fatal("level 1 carries no self traffic")
	}
	shapes := []struct {
		name      string
		in        *Instance
		notQuiet  []int // sites that must fail the quiet test
		quietOnly []int // sites that must be quiet but not quietSelf
		fallbacks bool  // must propose for a vertex whose neighbours share its site
	}{
		{name: "dominant", in: base},
		{
			name: "cheap-link",
			in: withMatrices(base, func(lt, bt *mat.Matrix) {
				// Sites 2 and 5 get a slow intra pair that is still no
				// slower than their inter-site links: site 5 stays quiet,
				// but self traffic pays to leave it.
				for k := 0; k < m; k++ {
					lt.Set(k, k, []float64{0.0001, 0.0002, 0.0014}[k%3])
					bt.Set(k, k, []float64{1e9, 5e8, 1e8}[k%3])
				}
				for _, kl := range [][2]int{{1, 2}, {2, 1}} {
					lt.Set(kl[0], kl[1], 0.00005)
					bt.Set(kl[0], kl[1], 5e9)
				}
			}),
			notQuiet:  []int{1, 2},
			quietOnly: []int{5},
			fallbacks: true,
		},
		{
			name:     "nan",
			in:       withMatrices(base, func(lt, _ *mat.Matrix) { lt.Set(3, 4, math.NaN()) }),
			notQuiet: []int{3, 4},
		},
	}
	// Home sites: level-0 vertex v lives on block (v mod n/4)·m/(n/4), so
	// its ring and stride neighbours mostly share its site; a coarse
	// vertex lives where its first member does.
	quarter := n / 4
	home0 := make([]int, n)
	for v := range home0 {
		home0[v] = (v % quarter) * m / quarter
	}
	home1 := make([]int, coarse.g.n)
	for v := n - 1; v >= 0; v-- {
		home1[h[0].toCoarse[v]] = home0[v]
	}
	levels := []struct {
		name string
		lv   *level
		home []int
	}{{"level0", h[0], home0}, {"level1", coarse, home1}}

	for _, sh := range shapes {
		fallbacks := 0
		for _, lc := range levels {
			rng := stats.NewRand(11)
			gn := lc.lv.g.n
			skipped := 0
			for trial := 0; trial < 4; trial++ {
				// Home sites with a tenth of the vertices scattered: many
				// vertices have every neighbour on their own site, the rest
				// sit on a boundary.
				pl := make([]int, gn)
				for v := range pl {
					switch {
					case lc.lv.pin[v] >= 0:
						pl[v] = lc.lv.pin[v]
					case len(lc.lv.allowed[v]) > 0:
						pl[v] = lc.lv.allowed[v][rng.Intn(len(lc.lv.allowed[v]))]
					case rng.Intn(10) == 0:
						pl[v] = rng.Intn(m)
					default:
						pl[v] = lc.home[v]
					}
				}
				// A placement using the NaN pair has a NaN cost, whose
				// tolerance would reject every step; take the floor.
				tol := RefineTol(sh.in.cost(lc.lv.g, pl))
				if math.IsNaN(tol.Float()) {
					tol = RefineTol(units.Cost(1))
				}
				var want []proposal
				for _, workers := range []int{1, 4} {
					r := newRefiner(sh.in, workers, 1)
					r.attach(lc.lv)
					for v, s := range pl {
						r.load[s] += lc.lv.g.weight[v]
					}
					for _, k := range sh.notQuiet {
						if r.quiet[k] {
							t.Fatalf("%s: site %d reported quiet", sh.name, k)
						}
					}
					for _, k := range sh.quietOnly {
						if !r.quiet[k] || r.quietSelf[k] {
							t.Fatalf("%s: site %d quiet=%v quietSelf=%v, want true, false", sh.name, k, r.quiet[k], r.quietSelf[k])
						}
					}
					if want == nil {
						want = refPropose(r, pl, tol)
						if len(want) == 0 {
							t.Fatalf("%s/%s trial %d: reference proposes nothing", sh.name, lc.name, trial)
						}
						for _, p := range want {
							if neighboursShareSite(lc.lv.g, pl, p.v) {
								fallbacks++
							}
						}
						for v := range pl {
							if lc.lv.pin[v] < 0 && r.interior(pl, v) {
								skipped++
							}
						}
					}
					r.propose(pl, tol)
					got := r.props
					if len(got) != len(want) {
						t.Fatalf("%s/%s trial %d workers=%d: %d proposals, reference %d", sh.name, lc.name, trial, workers, len(got), len(want))
					}
					for i := range got {
						g, w := got[i], want[i]
						if g.v != w.v || g.peer != w.peer || g.site != w.site ||
							math.Float64bits(g.delta.Float()) != math.Float64bits(w.delta.Float()) {
							t.Fatalf("%s/%s trial %d workers=%d: proposal %d is %+v, reference %+v", sh.name, lc.name, trial, workers, i, g, w)
						}
					}
				}
			}
			if skipped == 0 {
				t.Errorf("%s/%s: no vertex was skipped; the boundary-only scan went untested", sh.name, lc.name)
			}
		}
		if sh.fallbacks && fallbacks == 0 {
			t.Errorf("%s: no proposal came from a vertex whose neighbours share its site; the non-quiet path went untested", sh.name)
		}
		if !sh.fallbacks && fallbacks != 0 {
			t.Errorf("%s: %d proposals from vertices whose neighbours share a quiet site", sh.name, fallbacks)
		}
	}
}
