// Package comm represents application communication patterns.
//
// The paper describes an application by two N×N matrices: CG, the volume of
// communication between every pair of processes, and AG, the number of
// messages exchanged (Table 4). The evaluation scales to 8192 processes
// where the patterns are sparse (NPB kernels talk to a handful of
// neighbors), so this package stores both matrices together as one
// directed weighted graph, and converts to dense matrices on demand for
// small problems and for rendering Figure 3.
//
// A Graph has two phases. While it is built, AddTraffic appends each
// contribution to an insertion-ordered list. The first read freezes the
// graph, exactly once and safely under concurrent readers, into CSR
// (compressed sparse row) form: an outgoing and an incoming Adjacency,
// each row sorted by peer, with repeated (src, dst) contributions summed
// in insertion order. From then on the graph is immutable — every read is
// a lock-free slice access, AddTraffic panics, and the graph may be shared
// freely across goroutines. The multilevel solver's level-0 graph is a
// view of the same frozen arrays, not a copy.
package comm

import (
	"fmt"
	"sort"
	"sync"

	"geoprocmap/internal/mat"
)

// Edge is directed traffic from one process to a peer.
type Edge struct {
	Peer   int     // destination (or source, for incoming edges) process
	Volume float64 // total bytes transferred (CG entry)
	Msgs   float64 // total number of messages (AG entry)
}

// Adjacency is a directed graph's edges in CSR form: the edges of row v
// are Edges[Idx[v]:Idx[v+1]], so len(Idx) is the row count plus one.
type Adjacency struct {
	Idx   []int
	Edges []Edge
}

// Row returns the edges of row v. The slice aliases the adjacency's
// storage; callers must not modify it.
//
//geolint:allocfree
func (a Adjacency) Row(v int) []Edge { return a.Edges[a.Idx[v]:a.Idx[v+1]] }

// Transpose reverses every edge: row u of the result holds Edge{Peer: v}
// for each edge v→u of a, over n rows. Sources are visited in ascending
// row order and each row in order, so every result row is sorted by peer
// and equal peers keep their order in a.
func (a Adjacency) Transpose(n int) Adjacency {
	t := Adjacency{Idx: make([]int, n+1), Edges: make([]Edge, len(a.Edges))}
	for _, e := range a.Edges {
		t.Idx[e.Peer+1]++
	}
	for u := 0; u < n; u++ {
		t.Idx[u+1] += t.Idx[u]
	}
	cursor := append([]int(nil), t.Idx[:n]...)
	for v := 0; v+1 < len(a.Idx); v++ {
		for _, e := range a.Row(v) {
			t.Edges[cursor[e.Peer]] = Edge{Peer: v, Volume: e.Volume, Msgs: e.Msgs}
			cursor[e.Peer]++
		}
	}
	return t
}

// contribution is one AddTraffic call awaiting the freeze.
type contribution struct {
	src int
	e   Edge // e.Peer is the destination
}

// Graph holds the combined CG/AG communication pattern of an N-process
// application. Traffic is directed; AddTraffic(i, j, …) and
// AddTraffic(j, i, …) accumulate separately, matching the paper's
// asymmetric matrices.
type Graph struct {
	n       int
	pending []contribution // build phase, in insertion order

	totalVolume float64
	totalMsgs   float64

	once   sync.Once
	frozen bool
	out    Adjacency // out.Row(i) = traffic i→j, by ascending j
	in     Adjacency // in.Row(j) = traffic i→j with Peer i, by ascending i
}

// NewGraph returns an empty pattern over n processes.
// It panics if n is negative.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("comm: negative process count %d", n)) //geolint:ignore libpanic negative count is a programmer error, like make() with negative len
	}
	return &Graph{n: n}
}

// N returns the number of processes.
func (g *Graph) N() int { return g.n }

// AddTraffic accumulates volume bytes over msgs messages sent from src to
// dst. Self-traffic (src == dst) is ignored, as in the paper's model where
// the diagonal carries no cost. Negative volume or msgs panic, and so does
// any call after the graph's first read has frozen it.
func (g *Graph) AddTraffic(src, dst int, volume, msgs float64) {
	g.checkProc(src)
	g.checkProc(dst)
	if volume < 0 || msgs < 0 {
		panic(fmt.Sprintf("comm: negative traffic (%g bytes, %g msgs)", volume, msgs)) //geolint:ignore libpanic trace.Recorder validates sizes; negative traffic is a profiler bug
	}
	if g.frozen {
		panic("comm: AddTraffic after the graph was read") //geolint:ignore libpanic mutating a frozen, possibly shared graph is a programmer error
	}
	if src == dst || (volume == 0 && msgs == 0) {
		return
	}
	g.pending = append(g.pending, contribution{src: src, e: Edge{Peer: dst, Volume: volume, Msgs: msgs}})
	g.totalVolume += volume
	g.totalMsgs += msgs
}

func (g *Graph) checkProc(i int) {
	if i < 0 || i >= g.n {
		//geolint:allocsite panic path: the message formats only on an out-of-range programmer error
		panic(fmt.Sprintf("comm: process %d out of range [0,%d)", i, g.n)) //geolint:ignore libpanic process bounds mirror slice indexing on the profiling hot path
	}
}

// CSR returns the outgoing and incoming adjacency. Both alias the
// graph's storage; callers must not modify them.
//
//geolint:allocfree
func (g *Graph) CSR() (out, in Adjacency) {
	g.ready()
	return g.out, g.in
}

// ready freezes the graph on the first call of any reader; sync.Once
// makes that first read safe under concurrent readers.
//
//geolint:allocfree
func (g *Graph) ready() { g.once.Do(g.freeze) }

// freeze turns the pending contributions into the out and in CSR rows.
// Two stable counting sorts (by destination, then by source) order the
// contributions by (src, dst) while keeping insertion order among equal
// pairs, so summing each run reproduces the build phase's running sums
// bit for bit.
//
//geolint:allocsite cold path: runs once per graph, on its first read
func (g *Graph) freeze() {
	byDst := Adjacency{Idx: make([]int, g.n+1), Edges: make([]Edge, len(g.pending))}
	for _, c := range g.pending {
		byDst.Idx[c.e.Peer+1]++
	}
	for j := 0; j < g.n; j++ {
		byDst.Idx[j+1] += byDst.Idx[j]
	}
	cursor := append([]int(nil), byDst.Idx[:g.n]...)
	for _, c := range g.pending {
		byDst.Edges[cursor[c.e.Peer]] = Edge{Peer: c.src, Volume: c.e.Volume, Msgs: c.e.Msgs}
		cursor[c.e.Peer]++
	}
	g.pending = nil

	out := byDst.Transpose(g.n)
	k := 0
	for i := 0; i < g.n; i++ {
		row := out.Row(i)
		out.Idx[i] = k
		for a := 0; a < len(row); {
			sum := Edge{Peer: row[a].Peer}
			for ; a < len(row) && row[a].Peer == sum.Peer; a++ {
				sum.Volume += row[a].Volume
				sum.Msgs += row[a].Msgs
			}
			out.Edges[k] = sum
			k++
		}
	}
	out.Idx[g.n] = k
	if k < len(out.Edges) {
		out.Edges = append([]Edge(nil), out.Edges[:k]...) // drop the merged duplicates' storage
	}
	g.out, g.in = out, out.Transpose(g.n)
	g.frozen = true
}

// Volume returns CG(i, j): the bytes sent from i to j.
func (g *Graph) Volume(i, j int) float64 {
	if e := g.edge(i, j); e != nil {
		return e.Volume
	}
	return 0
}

// Msgs returns AG(i, j): the number of messages sent from i to j.
func (g *Graph) Msgs(i, j int) float64 {
	if e := g.edge(i, j); e != nil {
		return e.Msgs
	}
	return 0
}

// edge binary-searches i's outgoing row for j.
func (g *Graph) edge(i, j int) *Edge {
	g.checkProc(i)
	g.checkProc(j)
	row := g.Outgoing(i)
	k := sort.Search(len(row), func(k int) bool { return row[k].Peer >= j })
	if k < len(row) && row[k].Peer == j {
		return &row[k]
	}
	return nil
}

// Outgoing returns the outgoing edges of process i sorted by peer. The
// slice aliases the frozen graph; callers must not modify it.
//
//geolint:allocfree
func (g *Graph) Outgoing(i int) []Edge {
	g.checkProc(i)
	g.ready()
	return g.out.Row(i)
}

// Incoming returns the incoming edges of process i sorted by peer. Each
// edge's Peer field is the *sender*. The slice aliases the frozen graph;
// callers must not modify it.
//
//geolint:allocfree
func (g *Graph) Incoming(i int) []Edge {
	g.checkProc(i)
	g.ready()
	return g.in.Row(i)
}

// Neighbors calls fn for every process j that exchanges traffic with i in
// either direction, with the combined volume CG(i,j)+CG(j,i) and message
// count AG(i,j)+AG(j,i), in ascending peer order (deterministic).
//
//geolint:allocfree
func (g *Graph) Neighbors(i int, fn func(j int, volume, msgs float64)) {
	g.checkProc(i)
	g.ready()
	o, r := g.out.Row(i), g.in.Row(i)
	a, b := 0, 0
	for a < len(o) && b < len(r) {
		switch {
		case o[a].Peer < r[b].Peer:
			fn(o[a].Peer, o[a].Volume, o[a].Msgs)
			a++
		case r[b].Peer < o[a].Peer:
			fn(r[b].Peer, r[b].Volume, r[b].Msgs)
			b++
		default:
			fn(o[a].Peer, o[a].Volume+r[b].Volume, o[a].Msgs+r[b].Msgs)
			a++
			b++
		}
	}
	for ; a < len(o); a++ {
		fn(o[a].Peer, o[a].Volume, o[a].Msgs)
	}
	for ; b < len(r); b++ {
		fn(r[b].Peer, r[b].Volume, r[b].Msgs)
	}
}

// Quantity returns the total communication quantity of process i — the sum
// of bytes it sends and receives. Algorithm 1 selects the "process with the
// heaviest communication quantity" by this measure.
//
//geolint:allocfree
func (g *Graph) Quantity(i int) float64 {
	var q float64
	g.Neighbors(i, func(_ int, vol, _ float64) { q += vol }) // deterministic accumulation order
	return q
}

// TotalVolume returns the sum of CG.
func (g *Graph) TotalVolume() float64 { return g.totalVolume }

// TotalMsgs returns the sum of AG.
func (g *Graph) TotalMsgs() float64 { return g.totalMsgs }

// EdgeCount returns the number of directed (i, j) pairs with traffic.
func (g *Graph) EdgeCount() int {
	g.ready()
	return len(g.out.Edges)
}

// MaxDegree returns the largest number of distinct peers (union of in and
// out) over all processes.
func (g *Graph) MaxDegree() int {
	best := 0
	for i := 0; i < g.n; i++ {
		d := 0
		g.Neighbors(i, func(int, float64, float64) { d++ })
		best = max(best, d)
	}
	return best
}

// DenseCG materializes the N×N communication-volume matrix.
func (g *Graph) DenseCG() *mat.Matrix {
	m := mat.NewSquare(g.n)
	for i := 0; i < g.n; i++ {
		for _, e := range g.Outgoing(i) {
			m.Set(i, e.Peer, e.Volume)
		}
	}
	return m
}

// DenseAG materializes the N×N message-count matrix.
func (g *Graph) DenseAG() *mat.Matrix {
	m := mat.NewSquare(g.n)
	for i := 0; i < g.n; i++ {
		for _, e := range g.Outgoing(i) {
			m.Set(i, e.Peer, e.Msgs)
		}
	}
	return m
}
