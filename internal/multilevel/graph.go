// Package multilevel implements a multilevel process-mapping solver:
// coarsen the communication graph by repeated heavy-edge matching, map the
// coarsest graph with the paper's group-order heuristic generalized to
// weighted super-vertices, then uncoarsen level by level while refining the
// placement with a parallel, deterministic move/swap local search.
//
// The scheme follows "Better Process Mapping and Sparse Quadratic
// Assignment" (Schulz & Träff) and "Shared-Memory Hierarchical Process
// Mapping" (Schulz & Woydt): the κ! order search that makes the flat
// heuristic super-polynomial only ever runs on a few×M super-vertices, so
// the end-to-end complexity is dominated by the O(E·M) refinement sweeps —
// linear in the communication pattern for the sparse workloads the paper
// evaluates.
//
// The package deliberately does not import internal/core: core exposes the
// solver as core.MultilevelGeoMapper, so the dependency points the other
// way. All structures here speak plain slices plus the shared comm/mat/
// units/stats vocabulary.
package multilevel

import (
	"geoprocmap/internal/comm"
	"geoprocmap/internal/mat"
	"geoprocmap/internal/units"
)

// Graph is a directed communication graph in CSR (compressed sparse row)
// form, flattened for cache-friendly O(degree) traversal in the refinement
// hot path. Each vertex is a super-vertex standing for Weight[v] original
// processes; traffic between processes merged into the same super-vertex
// is accumulated in the self arrays so every level charges the exact
// intra-site α–β cost of its projected placement — total communication
// volume is conserved level to level, which TestCoarsenConservesVolume
// asserts.
type Graph struct {
	n      int
	weight []int // processes merged into each vertex (level 0: all 1)

	// Directed adjacency, both orientations: out.Row(v) lists v's
	// destinations in ascending order, in.Row(v) its senders. Level 0
	// shares these arrays with the frozen comm.Graph.
	out, in comm.Adjacency

	// Intra-vertex traffic absorbed by contraction: the (volume, msgs)
	// totals of all edges between processes merged into v. Charged at the
	// intra-site rate LT(s,s)/BT(s,s) of the vertex's current site.
	selfVol  []float64
	selfMsgs []float64
}

// N returns the number of (super-)vertices.
func (g *Graph) N() int { return g.n }

// Weight returns the number of original processes merged into vertex v.
func (g *Graph) Weight(v int) int { return g.weight[v] }

// TotalVolume returns the total communication volume represented by the
// graph, counting directed edges once plus all absorbed intra-vertex
// traffic. Contraction preserves it exactly.
func (g *Graph) TotalVolume() float64 {
	var t float64
	for _, e := range g.out.Edges {
		t += e.Volume
	}
	for _, v := range g.selfVol {
		t += v
	}
	return t
}

// TotalMsgs is TotalVolume for message counts.
func (g *Graph) TotalMsgs() float64 {
	var t float64
	for _, e := range g.out.Edges {
		t += e.Msgs
	}
	for _, v := range g.selfMsgs {
		t += v
	}
	return t
}

// TotalWeight returns the number of original processes represented.
func (g *Graph) TotalWeight() int {
	t := 0
	for _, w := range g.weight {
		t += w
	}
	return t
}

// FromComm returns the level-0 graph of a comm.Graph: unit weights, no
// self traffic, and a view of the comm graph's frozen CSR arrays rather
// than a copy of its edges.
func FromComm(cg *comm.Graph) *Graph {
	n := cg.N()
	out, in := cg.CSR()
	g := &Graph{
		n:        n,
		weight:   make([]int, n),
		out:      out,
		in:       in,
		selfVol:  make([]float64, n),
		selfMsgs: make([]float64, n),
	}
	for v := range g.weight {
		g.weight[v] = 1
	}
	return g
}

// Instance is a mapping problem phrased over a CSR graph: the network
// matrices, per-site capacities, the pin vector (-1 = free), optional
// multi-site restrictions, and the K-means site groups the coarsest-level
// order search permutes. All fields are read-only to the solver.
type Instance struct {
	G        *Graph
	LT, BT   *mat.Matrix
	Capacity []int
	Pin      []int   // per level-0 vertex: required site or -1
	Allowed  [][]int // per level-0 vertex: admissible sites; nil/empty = all
	Groups   [][]int // site groups for the initial-map order search
}

// M returns the number of sites.
func (in *Instance) M() int { return len(in.Capacity) }

// linkCost is the α–β cost of (vol, msgs) over the site pair (k, l) —
// Formula 3 of the paper, identical to core.Problem.Cost's per-edge term.
//
//geolint:allocfree
func (in *Instance) linkCost(k, l int, vol, msgs float64) units.Cost {
	lat := units.Seconds(in.LT.At(k, l))
	bw := units.BytesPerSec(in.BT.At(k, l))
	return (lat.Scale(msgs) + units.Bytes(vol).Over(bw)).AsCost()
}

// cost evaluates the full objective of a placement over graph g (any
// level): directed edges at their site pair plus absorbed intra-vertex
// traffic at the intra-site rate. For the projected placement this equals
// the fine-level objective term for term.
//
//geolint:allocfree
func (in *Instance) cost(g *Graph, pl []int) units.Cost {
	var c units.Cost
	for v := 0; v < g.n; v++ {
		sv := pl[v]
		for _, e := range g.out.Row(v) {
			c += in.linkCost(sv, pl[e.Peer], e.Volume, e.Msgs)
		}
		if g.selfVol[v] != 0 || g.selfMsgs[v] != 0 {
			c += in.linkCost(sv, sv, g.selfVol[v], g.selfMsgs[v])
		}
	}
	return c
}

// Cost exposes the objective of a level-0 placement (for callers that hold
// an Instance but not a core.Problem).
func (in *Instance) Cost(pl []int) units.Cost { return in.cost(in.G, pl) }

// refWeights returns the mean inter-site latency and bandwidth (intra-site
// for M = 1), mirroring core.Problem.referenceWeights: the scalarization
// that makes a (volume, msgs) pair commensurate with the cost model.
func (in *Instance) refWeights() (units.Seconds, units.BytesPerSec) {
	m := in.M()
	var latSum, bwSum float64
	pairs := 0
	for k := 0; k < m; k++ {
		for l := 0; l < m; l++ {
			if k == l {
				continue
			}
			latSum += in.LT.At(k, l)
			bwSum += in.BT.At(k, l)
			pairs++
		}
	}
	if pairs == 0 {
		return units.Seconds(in.LT.At(0, 0)), units.BytesPerSec(in.BT.At(0, 0))
	}
	return units.Seconds(latSum / float64(pairs)), units.BytesPerSec(bwSum / float64(pairs))
}

// allowedOn reports whether a vertex with the given pin and allowed set may
// sit on site s.
func allowedOn(pin int, allowed []int, s int) bool {
	if pin >= 0 {
		return pin == s
	}
	if len(allowed) == 0 {
		return true
	}
	for _, a := range allowed {
		if a == s {
			return true
		}
	}
	return false
}
