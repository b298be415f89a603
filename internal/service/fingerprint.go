package service

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"

	"geoprocmap/internal/core"
)

// fingerprint computes the canonical cache key of a request solved
// against a snapshot version. Everything that can change the placement
// participates: the communication pattern (preset name or sorted edge
// list), pins, allowed sets, solver choice and seed, and the snapshot
// version itself. Two requests with the same fingerprint are guaranteed
// to produce bit-identical results, which is what lets the cache and the
// singleflight layer return one request's answer to another.
//
// The key is the SHA-256 of one buffer holding every field as 8-byte
// little-endian words (strings as length then bytes), hashed in one call.
//
//geolint:deterministic
func fingerprint(r *MapRequest, snapshotVersion uint64) string {
	b := make([]byte, 0, 72+len(r.Algorithm)+len(r.Workload)+32*len(r.Edges)+8*len(r.Constraint)+16*len(r.Allowed))
	b = appendU64(b, snapshotVersion)
	b = appendStr(b, r.Algorithm)
	b = appendU64(b, uint64(r.Kappa))
	b = appendU64(b, uint64(r.Seed))
	b = appendU64(b, uint64(r.Procs))
	b = appendU64(b, uint64(r.iters()))
	b = appendStr(b, r.Workload)
	if len(r.Edges) > 0 {
		b = appendU64(b, uint64(len(r.Edges)))
		for _, k := range edgeOrder(r.Edges, r.Procs) {
			e := &r.Edges[k]
			b = appendU64(b, uint64(e.Src))
			b = appendU64(b, uint64(e.Dst))
			b = appendU64(b, math.Float64bits(e.Volume))
			b = appendU64(b, math.Float64bits(e.Msgs))
		}
	}
	// An all-Unconstrained vector fingerprints identically to an absent
	// one, matching how the problem is built.
	pinned := false
	for _, c := range r.Constraint {
		if c != core.Unconstrained {
			pinned = true
			break
		}
	}
	if pinned {
		b = appendU64(b, uint64(len(r.Constraint)))
		for _, c := range r.Constraint {
			b = appendU64(b, uint64(int64(c)))
		}
	}
	if len(r.Allowed) > 0 {
		b = appendU64(b, uint64(len(r.Allowed)))
		for _, set := range r.Allowed {
			b = appendU64(b, uint64(len(set)))
			for _, s := range set {
				b = appendU64(b, uint64(s))
			}
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// edgeOrder returns the indices of edges in canonical (src, dst) order.
// The order is stable: repeated entries of one pair keep their request
// order, which is the order comm.Graph sums them in, so equal keys mean
// equal graphs. When every src lies in [0, procs) — always, once a
// request has passed validate — the edges are bucketed by src and each
// bucket is sorted by dst, O(E + procs) for the few edges per bucket of
// a real pattern; otherwise it falls back to one stable comparison sort.
func edgeOrder(edges []Edge, procs int) []int32 {
	order := make([]int32, len(edges))
	byDst := func(a, b int32) int { return cmp.Compare(edges[a].Dst, edges[b].Dst) }
	// start[s+1] counts bucket s, then a prefix sum turns start[s] into
	// the first slot of bucket s; the counting sort keeps request order
	// within each bucket.
	procs = max(procs, 0)
	start := make([]int32, procs+1)
	for i := range edges {
		s := edges[i].Src
		if s < 0 || s >= procs {
			for i := range order {
				order[i] = int32(i)
			}
			slices.SortStableFunc(order, func(a, b int32) int {
				if c := cmp.Compare(edges[a].Src, edges[b].Src); c != 0 {
					return c
				}
				return byDst(a, b)
			})
			return order
		}
		start[s+1]++
	}
	for s := 1; s <= procs; s++ {
		start[s] += start[s-1]
	}
	next := start[:procs:procs]
	for i := range edges {
		s := edges[i].Src
		order[next[s]] = int32(i)
		next[s]++
	}
	// next[s] now holds the end of bucket s, i.e. the start of s+1.
	lo := int32(0)
	for _, hi := range next {
		if hi-lo > 1 {
			slices.SortStableFunc(order[lo:hi], byDst)
		}
		lo = hi
	}
	return order
}

// routingVersion is the snapshot-version sentinel RoutingKey hashes in
// place of a real version. Store versions start at 1 and only ever
// increase, so routing keys can never collide with cache keys.
const routingVersion = ^uint64(0)

// RoutingKey is the cluster routing key of a request: its fingerprint
// independent of any snapshot version. Shard ownership must not change
// when a snapshot is published (that would migrate every cache entry),
// and clients cannot know the fleet's current version — so routing
// hashes the request alone while cache keys keep embedding the version.
//
//geolint:deterministic
func RoutingKey(r *MapRequest) string { return fingerprint(r, routingVersion) }

// PlacementDigest is the canonical SHA-256 of a placement vector — the
// digest carried in MapResult.Digest. Exported so the re-gauging loop
// (and the offline replay scenario) can stamp remapped results with the
// same digest clients already compare.
func PlacementDigest(pl core.Placement) string { return placementDigest(pl) }

// placementDigest is the canonical SHA-256 of a placement vector,
// exposed in responses so clients can assert determinism cheaply.
//
//geolint:deterministic
func placementDigest(pl core.Placement) string {
	b := make([]byte, 0, 8*len(pl))
	for _, s := range pl {
		b = appendU64(b, uint64(int64(s)))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendStr(b []byte, s string) []byte { return append(appendU64(b, uint64(len(s))), s...) }
