package bench

import (
	"geoprocmap/internal/comm"
	"geoprocmap/internal/core"
	"geoprocmap/internal/geo"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/service"
	"geoprocmap/internal/stats"
)

// Edges is a communication pattern held as parallel arrays, so the timed
// graph build reads prepared inputs instead of drawing random numbers.
type Edges struct {
	N         int
	Src, Dst  []int
	Vol, Msgs []float64
}

// Ring builds the ring + stride + butterfly pattern of the multilevel
// experiment (internal/experiments syntheticProblem) on n processes:
// the same draws in the same order, so seed 1 at n = 100000 reproduces
// the committed results/multilevel.json cell.
func Ring(n int, seed int64) *Edges {
	rng := stats.NewRand(seed)
	e := &Edges{N: n}
	add := func(i, j int, vol, msgs float64) {
		e.Src = append(e.Src, i)
		e.Dst = append(e.Dst, j)
		e.Vol = append(e.Vol, vol)
		e.Msgs = append(e.Msgs, msgs)
	}
	stride := n / 4
	if stride < 2 {
		stride = 2
	}
	for i := 0; i < n; i++ {
		add(i, (i+1)%n, 2e6*(1+rng.Float64()), 20)
		add(i, (i+stride)%n, 5e5*(1+rng.Float64()), 8)
		bit := 1 << uint(i%10)
		if j := i ^ bit; j < n && j != i {
			add(i, j, 2e5*(1+rng.Float64()), 4)
		}
	}
	return e
}

// Graph builds the comm.Graph of the pattern: the graph-build layer.
func (e *Edges) Graph() *comm.Graph {
	g := comm.NewGraph(e.N)
	for k := range e.Src {
		g.AddTraffic(e.Src[k], e.Dst[k], e.Vol[k], e.Msgs[k])
	}
	return g
}

// Request returns the pattern as the explicit edge list of a map request.
func (e *Edges) Request() []service.Edge {
	out := make([]service.Edge, len(e.Src))
	for k := range e.Src {
		out[k] = service.Edge{Src: e.Src[k], Dst: e.Dst[k], Volume: e.Vol[k], Msgs: e.Msgs[k]}
	}
	return out
}

// anchorSites are the EC2 regions the multilevel experiment starts its
// synthetic clouds from.
var anchorSites = []geo.LatLon{
	{Lat: 38.95, Lon: -77.45}, {Lat: 37.35, Lon: -121.96}, {Lat: 45.84, Lon: -119.29},
	{Lat: 53.35, Lon: -6.26}, {Lat: 50.12, Lon: 8.68}, {Lat: 1.29, Lon: 103.85},
	{Lat: -33.87, Lon: 151.21}, {Lat: 35.68, Lon: 139.69}, {Lat: 19.08, Lon: 72.88},
	{Lat: -23.55, Lon: -46.63}, {Lat: 45.50, Lon: -73.57},
}

// SyntheticCloud returns everything of the multilevel experiment's problem
// except the communication graph: m sites with great-circle LT/BT and the
// experiment's capacity for n processes, all processes unconstrained.
func SyntheticCloud(n, m int) *core.Problem {
	pc := make([]geo.LatLon, m)
	for k := range pc {
		if k < len(anchorSites) {
			pc[k] = anchorSites[k]
			continue
		}
		i := k - len(anchorSites)
		lon := -180 + 137.5*float64(i+1)
		for lon >= 180 {
			lon -= 360
		}
		pc[k] = geo.LatLon{Lat: -40 + 18*float64(i%5), Lon: lon}
	}
	lt, bt := mat.NewSquare(m), mat.NewSquare(m)
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				lt.Set(k, l, 0.0002)
				bt.Set(k, l, 1e9)
				continue
			}
			km := geo.HaversineKm(pc[k], pc[l])
			lt.Set(k, l, 0.0005+km*5e-6)
			bt.Set(k, l, 2.5e8/(1+km/5000))
		}
	}
	return &core.Problem{
		LT:         lt,
		BT:         bt,
		PC:         pc,
		Capacity:   mat.NewIntVec(m, (n+m-1)/m+n/(8*m)+1),
		Constraint: mat.NewIntVec(n, core.Unconstrained),
	}
}
