package comm

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestAddTrafficAccumulates(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 100, 2)
	g.AddTraffic(0, 1, 50, 1)
	if got := g.Volume(0, 1); got != 150 {
		t.Errorf("Volume(0,1) = %v, want 150", got)
	}
	if got := g.Msgs(0, 1); got != 3 {
		t.Errorf("Msgs(0,1) = %v, want 3", got)
	}
	if got := g.Volume(1, 0); got != 0 {
		t.Errorf("reverse Volume = %v, want 0 (traffic is directed)", got)
	}
}

func TestSelfTrafficIgnored(t *testing.T) {
	g := NewGraph(2)
	g.AddTraffic(1, 1, 100, 5)
	if g.TotalVolume() != 0 || g.EdgeCount() != 0 {
		t.Error("self traffic should be ignored")
	}
}

func TestZeroTrafficNoEdge(t *testing.T) {
	g := NewGraph(2)
	g.AddTraffic(0, 1, 0, 0)
	if g.EdgeCount() != 0 {
		t.Error("zero traffic created an edge")
	}
}

func TestPanics(t *testing.T) {
	g := NewGraph(2)
	cases := []func(){
		func() { g.AddTraffic(-1, 0, 1, 1) },
		func() { g.AddTraffic(0, 2, 1, 1) },
		func() { g.AddTraffic(0, 1, -1, 1) },
		func() { g.AddTraffic(0, 1, 1, -1) },
		func() { g.Volume(0, 5) },
		func() { NewGraph(-1) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestOutgoingIncoming(t *testing.T) {
	g := NewGraph(4)
	g.AddTraffic(0, 2, 10, 1)
	g.AddTraffic(0, 1, 20, 2)
	g.AddTraffic(3, 0, 5, 1)
	out := g.Outgoing(0)
	if len(out) != 2 || out[0].Peer != 1 || out[1].Peer != 2 {
		t.Errorf("Outgoing(0) = %v, want peers [1 2]", out)
	}
	in := g.Incoming(0)
	if len(in) != 1 || in[0].Peer != 3 || in[0].Volume != 5 {
		t.Errorf("Incoming(0) = %v, want [{3 5 1}]", in)
	}
}

func TestNeighborsCombinesDirections(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 10, 1)
	g.AddTraffic(1, 0, 30, 2)
	g.AddTraffic(2, 0, 7, 1)
	got := map[int][2]float64{}
	g.Neighbors(0, func(j int, vol, msgs float64) {
		if _, dup := got[j]; dup {
			t.Fatalf("neighbor %d reported twice", j)
		}
		got[j] = [2]float64{vol, msgs}
	})
	if got[1] != [2]float64{40, 3} {
		t.Errorf("neighbor 1 = %v, want {40 3}", got[1])
	}
	if got[2] != [2]float64{7, 1} {
		t.Errorf("neighbor 2 = %v, want {7 1}", got[2])
	}
}

func TestQuantity(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 10, 1)
	g.AddTraffic(2, 0, 5, 1)
	if got := g.Quantity(0); got != 15 {
		t.Errorf("Quantity(0) = %v, want 15", got)
	}
	if got := g.Quantity(1); got != 10 {
		t.Errorf("Quantity(1) = %v, want 10", got)
	}
}

func TestTotalsAndDegree(t *testing.T) {
	g := NewGraph(4)
	g.AddTraffic(0, 1, 10, 1)
	g.AddTraffic(0, 2, 10, 2)
	g.AddTraffic(3, 0, 10, 3)
	if g.TotalVolume() != 30 || g.TotalMsgs() != 6 {
		t.Errorf("totals = %v/%v, want 30/6", g.TotalVolume(), g.TotalMsgs())
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3 (process 0)", g.MaxDegree())
	}
}

func TestDenseRoundTrip(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 100, 2)
	g.AddTraffic(1, 2, 50, 1)
	g.AddTraffic(2, 0, 25, 4)
	cg, ag := g.DenseCG(), g.DenseAG()
	if cg.At(0, 1) != 100 || ag.At(2, 0) != 4 {
		t.Error("dense matrices wrong")
	}
	if cg.Sum() != g.TotalVolume() || ag.Sum() != g.TotalMsgs() {
		t.Error("dense matrices lost traffic")
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if cg.At(i, j) != g.Volume(i, j) || ag.At(i, j) != g.Msgs(i, j) {
				t.Errorf("dense entry (%d,%d) = %g/%g, graph %g/%g", i, j, cg.At(i, j), ag.At(i, j), g.Volume(i, j), g.Msgs(i, j))
			}
		}
	}
}

// Property: TotalVolume equals the sum of the dense CG, and Quantity(i)
// equals row-plus-column sums, for random sparse graphs.
func TestQuickDenseConsistency(t *testing.T) {
	f := func(seedEdges []uint32) bool {
		const n = 9
		g := NewGraph(n)
		for _, raw := range seedEdges {
			src := int(raw % n)
			dst := int((raw / n) % n)
			vol := float64(raw%1000) + 1
			g.AddTraffic(src, dst, vol, 1)
		}
		cg := g.DenseCG()
		if math.Abs(cg.Sum()-g.TotalVolume()) > 1e-6 {
			return false
		}
		for i := 0; i < n; i++ {
			want := cg.RowSum(i) + cg.ColSum(i)
			if math.Abs(g.Quantity(i)-want) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Neighbors reports each pair exactly once with direction-summed
// traffic matching the dense matrices.
func TestQuickNeighbors(t *testing.T) {
	f := func(seedEdges []uint32) bool {
		const n = 7
		g := NewGraph(n)
		for _, raw := range seedEdges {
			g.AddTraffic(int(raw%n), int((raw/n)%n), float64(raw%97)+1, float64(raw%5)+1)
		}
		cg, ag := g.DenseCG(), g.DenseAG()
		for i := 0; i < n; i++ {
			seen := map[int]bool{}
			ok := true
			g.Neighbors(i, func(j int, vol, msgs float64) {
				if seen[j] || j == i {
					ok = false
					return
				}
				seen[j] = true
				if math.Abs(vol-(cg.At(i, j)+cg.At(j, i))) > 1e-9 {
					ok = false
				}
				if math.Abs(msgs-(ag.At(i, j)+ag.At(j, i))) > 1e-9 {
					ok = false
				}
			})
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNeighborsDeterministicOrder(t *testing.T) {
	g := NewGraph(10)
	// Insert edges in scrambled order.
	for _, e := range [][2]int{{0, 7}, {3, 0}, {0, 1}, {9, 0}, {0, 4}} {
		g.AddTraffic(e[0], e[1], 100, 1)
	}
	var order []int
	g.Neighbors(0, func(j int, _, _ float64) { order = append(order, j) })
	want := []int{1, 3, 4, 7, 9}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want ascending %v", order, want)
		}
	}
	// Incoming rows are sorted by sender as well.
	in := g.Incoming(0)
	if len(in) != 2 || in[0].Peer != 3 || in[1].Peer != 9 {
		t.Fatalf("Incoming(0) = %v, want senders [3 9]", in)
	}
}

// The freeze must sum repeated (src, dst) contributions in insertion
// order, reproducing a running `+=` accumulation bit for bit, and lay
// every row out in ascending peer order.
func TestFreezeMatchesRunningSums(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(5))
	g := NewGraph(n)
	type pair struct{ i, j int }
	vol, msgs := map[pair]float64{}, map[pair]float64{}
	for k := 0; k < 2000; k++ {
		i, j := rng.Intn(n), rng.Intn(n)
		v, m := rng.Float64()*1e6, float64(rng.Intn(4))
		g.AddTraffic(i, j, v, m)
		if i != j && (v != 0 || m != 0) {
			vol[pair{i, j}] += v
			msgs[pair{i, j}] += m
		}
	}
	if g.EdgeCount() != len(vol) {
		t.Fatalf("EdgeCount = %d, want %d", g.EdgeCount(), len(vol))
	}
	for i := 0; i < n; i++ {
		for _, row := range [][]Edge{g.Outgoing(i), g.Incoming(i)} {
			for k := 1; k < len(row); k++ {
				if row[k-1].Peer >= row[k].Peer {
					t.Fatalf("row of %d not strictly ascending: %v", i, row)
				}
			}
		}
		for _, e := range g.Outgoing(i) {
			p := pair{i, e.Peer}
			if math.Float64bits(e.Volume) != math.Float64bits(vol[p]) || math.Float64bits(e.Msgs) != math.Float64bits(msgs[p]) {
				t.Fatalf("edge %v = %g/%g, running sums %g/%g", p, e.Volume, e.Msgs, vol[p], msgs[p])
			}
		}
		for _, e := range g.Incoming(i) {
			if e.Volume != g.Volume(e.Peer, i) || e.Msgs != g.Msgs(e.Peer, i) {
				t.Fatalf("incoming edge %d→%d disagrees with its outgoing mirror", e.Peer, i)
			}
		}
	}
}

func TestAddTrafficAfterReadPanics(t *testing.T) {
	g := NewGraph(3)
	g.AddTraffic(0, 1, 10, 1)
	g.Quantity(2)
	defer func() {
		if recover() == nil {
			t.Error("AddTraffic after a read did not panic")
		}
	}()
	g.AddTraffic(1, 2, 5, 1)
}

// TestConcurrentFirstRead has several goroutines make the first reads of
// a graph nobody has read yet; under -race it checks that the freeze is
// synchronized and that every reader sees the same frozen rows.
func TestConcurrentFirstRead(t *testing.T) {
	const n = 200
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		g.AddTraffic(i, (i+1)%n, float64(100+i), 2)
		g.AddTraffic(i, (i+7)%n, float64(50+i), 1)
		g.AddTraffic((i+3)%n, i, 25, 1)
	}
	const readers = 8
	sums := make([][4]float64, readers) // Outgoing, Incoming, Neighbors, Quantity
	var wg sync.WaitGroup
	wg.Add(readers)
	for r := 0; r < readers; r++ {
		go func(r int) {
			defer wg.Done()
			var s [4]float64
			for k := 0; k < n; k++ {
				i := (k + r*n/readers) % n // each reader starts elsewhere
				for c := 0; c < 4; c++ {
					switch (c + r) % 4 { // and with a different first call
					case 0:
						for _, e := range g.Outgoing(i) {
							s[0] += e.Volume
						}
					case 1:
						for _, e := range g.Incoming(i) {
							s[1] += e.Volume
						}
					case 2:
						g.Neighbors(i, func(_ int, vol, _ float64) { s[2] += vol })
					default:
						s[3] += g.Quantity(i)
					}
				}
			}
			sums[r] = s
		}(r)
	}
	wg.Wait()
	if g.EdgeCount() != 3*n {
		t.Errorf("EdgeCount = %d, want %d", g.EdgeCount(), 3*n)
	}
	total := g.TotalVolume()
	for r, s := range sums {
		for c, want := range [4]float64{total, total, 2 * total, 2 * total} {
			if math.Abs(s[c]-want) > 1e-9*want {
				t.Errorf("reader %d view %d summed %g, want %g", r, c, s[c], want)
			}
		}
	}
}
