package service

import (
	"container/list"
	"context"
	"sync"
)

// resultCache is a fingerprint-keyed LRU of solved mapping results with
// singleflight deduplication: concurrent requests for the same
// fingerprint collapse onto one solve, and completed solves are retained
// up to a capacity bound. Keys embed the snapshot version (see
// fingerprint.go), so a snapshot swap makes old entries unreachable and
// ordinary LRU pressure evicts them — no flush path, no invalidation
// races.
//
// Each entry retains the request that produced it: the re-gauging loop
// walks the cache after a snapshot publication and rebuilds each entry's
// problem against the new model to decide whether the placement is worth
// migrating.
type resultCache struct {
	mu       sync.Mutex
	lru      lru[cacheEntry]    // fingerprint → solved result
	inflight map[string]*flight // fingerprint → in-progress solve
}

type cacheEntry struct {
	req *MapRequest
	res *MapResult
}

// flight is one in-progress solve other requests can wait on.
type flight struct {
	done chan struct{}
	res  *MapResult
	err  error
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{lru: newLRU[cacheEntry](capacity), inflight: make(map[string]*flight)}
}

// get returns the cached result for key, refreshing its recency.
func (c *resultCache) get(key string) (*MapResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lru.get(key)
	return e.res, ok
}

// add inserts a result, evicting the least-recently-used entry past
// capacity.
func (c *resultCache) add(key string, req *MapRequest, res *MapResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.add(key, cacheEntry{req: req, res: res})
}

// len returns the number of cached results.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.order.Len()
}

// lru is a string-keyed least-recently-used map with a fixed capacity.
// It is not synchronized; its owners guard it with their own mutex.
type lru[V any] struct {
	capacity  int
	order     *list.List               // front = most recent
	entries   map[string]*list.Element // key → element whose Value is *lruEntry[V]
	evictions uint64                   // entries dropped for capacity since creation
}

type lruEntry[V any] struct {
	key string
	val V
}

func newLRU[V any](capacity int) lru[V] {
	return lru[V]{capacity: max(capacity, 1), order: list.New(), entries: make(map[string]*list.Element)}
}

// get returns the value for key, refreshing its recency.
func (l *lru[V]) get(key string) (V, bool) {
	el, ok := l.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	l.order.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts or replaces the value for key as the most recent entry,
// evicting the least-recently-used entries past capacity.
func (l *lru[V]) add(key string, v V) {
	if el, ok := l.entries[key]; ok {
		l.order.MoveToFront(el)
		el.Value.(*lruEntry[V]).val = v
		return
	}
	l.entries[key] = l.order.PushFront(&lruEntry[V]{key: key, val: v})
	for l.order.Len() > l.capacity {
		last := l.order.Back()
		l.order.Remove(last)
		delete(l.entries, last.Value.(*lruEntry[V]).key)
		l.evictions++
	}
}

// CachedPlacement is one cached (request, result) pair, exposed to the
// re-gauging loop so it can re-evaluate live placements against a freshly
// published snapshot.
type CachedPlacement struct {
	Key     string
	Request *MapRequest
	Result  *MapResult
}

// walk returns a point-in-time copy of the cache contents in recency
// order (most recent first). The list order — not the entries map — is
// walked, so the result is deterministic for a deterministic request
// history.
func (c *resultCache) walk() []CachedPlacement {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]CachedPlacement, 0, c.lru.order.Len())
	for el := c.lru.order.Front(); el != nil; el = el.Next() {
		e := el.Value.(*lruEntry[cacheEntry])
		out = append(out, CachedPlacement{Key: e.key, Request: e.val.req, Result: e.val.res})
	}
	return out
}

// do runs solve for key exactly once across concurrent callers: the
// first caller executes it, later callers receive the same result once
// it completes — or their own ctx error if their deadline fires first
// (the leader's solve keeps running for the callers still waiting). A
// cached result short-circuits before any flight is created. The boolean
// reports whether this caller shared another caller's solve
// (deduplicated) rather than executing its own.
//
// Successful results are added to the LRU before the flight resolves, so
// a request arriving after completion hits the cache directly. Errors
// are not cached: the next request retries.
func (c *resultCache) do(ctx context.Context, key string, req *MapRequest, solve func() (*MapResult, error)) (res *MapResult, shared bool, err error) {
	c.mu.Lock()
	if e, ok := c.lru.get(key); ok {
		c.mu.Unlock()
		return e.res, true, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, true, f.err
		case <-ctx.Done():
			// The waiter's own deadline fired before the leader finished:
			// nothing was shared. Reporting shared=true here would
			// misclassify the outcome upstream — a timed-out waiter must
			// count as a timeout, not a dedup.
			return nil, false, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.res, f.err = solve()
	if f.err == nil {
		c.add(key, req, f.res)
	}
	c.mu.Lock()
	delete(c.inflight, key)
	c.mu.Unlock()
	close(f.done)
	return f.res, false, f.err
}
