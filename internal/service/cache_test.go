package service

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.add("a", nil, &MapResult{Digest: "a"})
	c.add("b", nil, &MapResult{Digest: "b"})
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing before eviction")
	}
	// "a" is now most recent; adding "c" evicts "b".
	c.add("c", nil, &MapResult{Digest: "c"})
	if _, ok := c.get("b"); ok {
		t.Error("b survived past capacity")
	}
	for _, k := range []string{"a", "c"} {
		if res, ok := c.get(k); !ok || res.Digest != k {
			t.Errorf("entry %q lost or corrupted", k)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

func TestSingleflightCollapsesConcurrentSolves(t *testing.T) {
	c := newResultCache(8)
	var solves atomic.Int64
	release := make(chan struct{})
	const callers = 16
	var wg sync.WaitGroup
	sharedCount := atomic.Int64{}
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, shared, err := c.do(context.Background(), "key", nil, func() (*MapResult, error) {
				solves.Add(1)
				<-release
				return &MapResult{Digest: "solved"}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Digest != "solved" {
				t.Errorf("digest = %q", res.Digest)
			}
			if shared {
				sharedCount.Add(1)
			}
		}()
	}
	// Let every caller reach the flight before releasing the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("solve executed %d times, want 1", n)
	}
	if n := sharedCount.Load(); n != callers-1 {
		t.Errorf("%d callers shared, want %d", n, callers-1)
	}
	// The result landed in the LRU.
	if _, ok := c.get("key"); !ok {
		t.Error("singleflight result not cached")
	}
}

func TestSingleflightWaiterHonorsContext(t *testing.T) {
	c := newResultCache(8)
	started := make(chan struct{})
	release := make(chan struct{})
	go func() {
		_, _, err := c.do(context.Background(), "slow", nil, func() (*MapResult, error) {
			close(started)
			<-release
			return &MapResult{}, nil
		})
		if err != nil {
			t.Error(err)
		}
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, shared, err := c.do(ctx, "slow", nil, func() (*MapResult, error) {
		t.Error("waiter must not start its own solve")
		return nil, nil
	})
	// A waiter whose own deadline fires shared nothing: shared must be
	// false so the server tallies the request as a timeout, not a dedup.
	if shared || err != context.DeadlineExceeded {
		t.Errorf("waiter got shared=%v err=%v, want unshared deadline error", shared, err)
	}
	close(release)
}

func TestSingleflightErrorsAreNotCached(t *testing.T) {
	c := newResultCache(8)
	attempts := 0
	_, _, err := c.do(context.Background(), "k", nil, func() (*MapResult, error) {
		attempts++
		return nil, fmt.Errorf("boom")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if _, ok := c.get("k"); ok {
		t.Fatal("error cached")
	}
	res, _, err := c.do(context.Background(), "k", nil, func() (*MapResult, error) {
		attempts++
		return &MapResult{Digest: "ok"}, nil
	})
	if err != nil || res.Digest != "ok" {
		t.Fatalf("retry failed: %v", err)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2", attempts)
	}
}

// TestCacheRace stresses the LRU + singleflight under concurrent mixed
// traffic; meaningful under -race.
func TestCacheRace(t *testing.T) {
	c := newResultCache(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%24)
				if i%3 == 0 {
					c.add(key, nil, &MapResult{Digest: key})
					continue
				}
				res, _, err := c.do(context.Background(), key, nil, func() (*MapResult, error) {
					return &MapResult{Digest: key}, nil
				})
				if err != nil || res.Digest != key {
					t.Errorf("do(%s): res=%v err=%v", key, res, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 16 {
		t.Errorf("cache grew to %d past capacity 16", c.len())
	}
}

// TestGraphMemoBounded is the key-churn regression for the workload memo:
// more distinct (workload, procs, iters) keys than its capacity leave it
// at capacity, and a request whose graph was evicted is re-profiled into
// the same placement.
func TestGraphMemoBounded(t *testing.T) {
	srv := newTestServer(t, Config{CacheSize: 1})
	h := srv.Handler()
	req := MapRequest{Workload: "LU", Procs: 16, Seed: 3}
	var first MapResponse
	postMap(t, h, req, http.StatusOK, &first)

	for iters := 1; iters <= graphMemoCap+8; iters++ {
		if _, err := srv.graphFor("SP", 4, iters); err != nil {
			t.Fatal(err)
		}
		if n := srv.graphs.order.Len(); n > graphMemoCap {
			t.Fatalf("memo holds %d graphs after %d keys, capacity %d", n, iters+1, graphMemoCap)
		}
	}
	if _, ok := srv.graphs.entries[fmt.Sprintf("LU/16/%d", req.iters())]; ok {
		t.Fatal("the first request's graph survived more than capacity newer keys")
	}

	// Push the first result out of the one-entry result cache, so the
	// repeat has to profile and solve again.
	postMap(t, h, MapRequest{Workload: "SP", Procs: 16, Seed: 3}, http.StatusOK, nil)
	var again MapResponse
	postMap(t, h, req, http.StatusOK, &again)
	if again.Cached {
		t.Fatal("repeat was served from the result cache; it must re-profile")
	}
	if again.Digest != first.Digest || again.Digest != PlacementDigest(first.Placement) {
		t.Errorf("re-profiled placement digest %s, first %s", again.Digest, first.Digest)
	}
}
