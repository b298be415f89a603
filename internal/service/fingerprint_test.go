package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"geoprocmap/internal/core"
)

// goldenEdges is an n-process explicit pattern with no repeated
// (src, dst) pair, listed out of order so the canonical sort matters.
func goldenEdges(n int) []Edge {
	var edges []Edge
	for i := 0; i < n; i++ {
		edges = append(edges,
			Edge{Src: i, Dst: (i + 1) % n, Volume: float64(i*i%97)*1024.5 + 0.25, Msgs: float64(i%5 + 1)},
			Edge{Src: i, Dst: (i + n/2) % n, Volume: 3e6 / float64(i+1), Msgs: 2})
	}
	// Visit the list in a stride permutation (37 is coprime to 2n).
	out := make([]Edge, len(edges))
	for k := range edges {
		out[k] = edges[k*37%len(edges)]
	}
	return out
}

// TestFingerprintGolden pins the cache and routing keys of requests with
// no repeated (src, dst) pair. Both keys must stay byte-identical across
// changes to how the fingerprint orders and hashes its input: a changed
// routing key moves requests between cluster shards, and a changed cache
// key silently cold-starts every daemon.
func TestFingerprintGolden(t *testing.T) {
	pins := make([]int, 16)
	for i := range pins {
		pins[i] = -1
	}
	pins[0], pins[5], pins[11] = 2, 0, 3
	allowed := make([][]int, 16)
	allowed[1], allowed[7] = []int{1, 2}, []int{0, 3}
	cases := []struct {
		name            string
		req             MapRequest
		fp, routing     string
		snapshotVersion uint64
	}{
		{
			name:            "preset",
			fp:              "bad1ebafbea94c51fc8220fe8ed94bdeb49395619199693f0e02011fb0132a74",
			routing:         "dcab301c7ccf68d844daa86a2fce0fe7d07259a36e779ae8e9ac492bd7b2c8e0",
			req:             MapRequest{Workload: "LU", Procs: 64, Iters: 2, Algorithm: "geo", Kappa: 3, Seed: 11},
			snapshotVersion: 7,
		},
		{
			name:            "edges",
			fp:              "9912c836f2e157e3d2da083bad79e32abe1390bc90f98496605b2157b95db898",
			routing:         "032b9c3c93142ab67890d44b8d5ac1b6cb7b9a7180a1842d9290533aa002a249",
			req:             MapRequest{Procs: 64, Edges: goldenEdges(64), Algorithm: "multilevel", Seed: -4},
			snapshotVersion: 1,
		},
		{
			name:            "pins",
			fp:              "4407a6c0eb07d056622943b22ccf5a3df8091dfe83ccba683ba9aabd9e065f82",
			routing:         "7fdd1f5fc7d72c4665f55ea9f6e1fb82e9bf0a83d7caaae6ee90857b7f8a0ada",
			req:             MapRequest{Workload: "BT", Procs: 16, Constraint: pins, Seed: 1},
			snapshotVersion: 3,
		},
		{
			name:            "allowed",
			fp:              "790ee468bac2317ca8595e8b73a27648bf2584b4e05484709b8981c965f78d36",
			routing:         "66614c5345693c33c85e5f7d6c1a2f2c5ec44f3b496a531fabd608b89aee4101",
			req:             MapRequest{Procs: 16, Edges: goldenEdges(16), Allowed: allowed, Algorithm: "greedy"},
			snapshotVersion: 42,
		},
	}
	for _, tc := range cases {
		if got := fingerprint(&tc.req, tc.snapshotVersion); got != tc.fp {
			t.Errorf("%s: fingerprint = %s, golden %s", tc.name, got, tc.fp)
		}
		if got := RoutingKey(&tc.req); got != tc.routing {
			t.Errorf("%s: RoutingKey = %s, golden %s", tc.name, got, tc.routing)
		}
	}
}

// TestFingerprintEdgeOrder checks the stable canonical edge order:
// permuting distinct pairs keeps the key, while swapping two entries of
// one repeated pair changes it, because comm.Graph sums repeats in
// request order. Both the bucketed path and the out-of-range fallback
// are covered.
func TestFingerprintEdgeOrder(t *testing.T) {
	for _, procs := range []int{64, 8} { // 8: src values reach 63, so the fallback sort runs
		req := MapRequest{Procs: procs, Edges: goldenEdges(64)}
		key := RoutingKey(&req)
		rev := req
		rev.Edges = slices.Clone(req.Edges)
		slices.Reverse(rev.Edges)
		if RoutingKey(&rev) != key {
			t.Errorf("procs %d: reordering distinct edges changed the key", procs)
		}
		rep := req
		rep.Edges = append(slices.Clone(req.Edges), Edge{Src: 3, Dst: 4, Volume: 1, Msgs: 1}, Edge{Src: 3, Dst: 4, Volume: 2, Msgs: 1})
		swapped := rep
		swapped.Edges = slices.Clone(rep.Edges)
		n := len(swapped.Edges)
		swapped.Edges[n-2], swapped.Edges[n-1] = swapped.Edges[n-1], swapped.Edges[n-2]
		if RoutingKey(&rep) == RoutingKey(&swapped) {
			t.Errorf("procs %d: swapping repeated entries of one pair kept the key", procs)
		}
	}
}

// TestEdgeOrderMatchesStableSort checks the bucketed order against the
// stable comparison sort it replaces, on random lists full of repeated
// pairs.
func TestEdgeOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		procs := 1 + rng.Intn(40)
		edges := make([]Edge, rng.Intn(200))
		for i := range edges {
			edges[i] = Edge{Src: rng.Intn(procs), Dst: rng.Intn(procs), Volume: float64(i)}
		}
		got, want := edgeOrder(edges, procs), edgeOrder(edges, -1) // procs -1 forces the fallback
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: bucketed order %v, stable sort %v", trial, got, want)
		}
		for k := 1; k < len(want); k++ {
			a, b := edges[want[k-1]], edges[want[k]]
			if a.Src > b.Src || a.Src == b.Src && (a.Dst > b.Dst || a.Dst == b.Dst && want[k-1] > want[k]) {
				t.Fatalf("trial %d: order not stable (src, dst) at %d", trial, k)
			}
		}
	}
}

// TestFingerprintMatchesReference checks the fingerprint against the
// sort.Slice implementation it replaced on random requests with no
// repeated pair, where the two orders coincide.
func TestFingerprintMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		req := benchRequest(1+rng.Intn(64), rng.Int63())
		rng.Shuffle(len(req.Edges), func(a, b int) { req.Edges[a], req.Edges[b] = req.Edges[b], req.Edges[a] })
		if trial%3 == 0 {
			req.Constraint = make([]int, req.Procs)
			for i := range req.Constraint {
				req.Constraint[i] = rng.Intn(5) - 1
			}
		}
		if trial%4 == 0 {
			req.Allowed = make([][]int, req.Procs)
			req.Allowed[0] = []int{1, 2}
		}
		if got, want := fingerprint(&req, uint64(trial)), referenceFingerprint(&req, uint64(trial)); got != want {
			t.Fatalf("trial %d: fingerprint %s, reference %s", trial, got, want)
		}
	}
}

// benchRequest is an explicit pattern shaped like the serving
// benchmark's hot requests: ring, quarter-stride and butterfly partners
// per process, listed in src order, volumes with full mantissas. Unlike
// those requests it skips repeated pairs, so its key is the same under
// the reference fingerprint.
func benchRequest(procs int, seed int64) MapRequest {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[[2]int]bool)
	var edges []Edge
	add := func(src, dst int, vol, msgs float64) {
		if src == dst || seen[[2]int{src, dst}] {
			return
		}
		seen[[2]int{src, dst}] = true
		edges = append(edges, Edge{Src: src, Dst: dst, Volume: vol, Msgs: msgs})
	}
	stride := max(procs/4, 2)
	for i := 0; i < procs; i++ {
		add(i, (i+1)%procs, 2e6*(1+rng.Float64()), 20)
		add(i, (i+stride)%procs, 5e5*(1+rng.Float64()), 8)
		if j := i ^ 1<<(i%10); j < procs {
			add(i, j, 2e5*(1+rng.Float64()), 4)
		}
	}
	return MapRequest{Procs: procs, Edges: edges, Algorithm: "multilevel", Seed: seed}
}

// referenceFingerprint is the fingerprint as first written: an unstable
// sort.Slice over a copy of the edges and one hash.Hash Write per 8-byte
// word. It gives the same key as fingerprint for every request with no
// repeated (src, dst) pair, and is kept as the differential reference
// and the benchmark baseline.
func referenceFingerprint(r *MapRequest, snapshotVersion uint64) string {
	h := sha256.New()
	refWriteU64(h, snapshotVersion)
	refWriteStr(h, r.Algorithm)
	refWriteU64(h, uint64(r.Kappa))
	refWriteU64(h, uint64(r.Seed))
	refWriteU64(h, uint64(r.Procs))
	refWriteU64(h, uint64(r.iters()))
	refWriteStr(h, r.Workload)
	if len(r.Edges) > 0 {
		edges := append([]Edge(nil), r.Edges...)
		sort.Slice(edges, func(i, j int) bool {
			if edges[i].Src != edges[j].Src {
				return edges[i].Src < edges[j].Src
			}
			return edges[i].Dst < edges[j].Dst
		})
		refWriteU64(h, uint64(len(edges)))
		for _, e := range edges {
			refWriteU64(h, uint64(e.Src))
			refWriteU64(h, uint64(e.Dst))
			refWriteU64(h, math.Float64bits(e.Volume))
			refWriteU64(h, math.Float64bits(e.Msgs))
		}
	}
	pinned := false
	for _, c := range r.Constraint {
		if c != core.Unconstrained {
			pinned = true
			break
		}
	}
	if pinned {
		refWriteU64(h, uint64(len(r.Constraint)))
		for _, c := range r.Constraint {
			refWriteU64(h, uint64(int64(c)))
		}
	}
	if len(r.Allowed) > 0 {
		refWriteU64(h, uint64(len(r.Allowed)))
		for _, set := range r.Allowed {
			refWriteU64(h, uint64(len(set)))
			for _, s := range set {
				refWriteU64(h, uint64(s))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func refWriteU64(h hash.Hash, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	h.Write(buf[:])
}

func refWriteStr(h hash.Hash, s string) {
	refWriteU64(h, uint64(len(s)))
	h.Write([]byte(s))
}
