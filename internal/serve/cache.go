package serve

import (
	"container/list"
	"context"
	"sync"

	"repro/internal/obs"
)

// result is one cached response. A sweep's also carries its row offsets:
// row i is body[rows[i] : rows[i+1]-1] (a separator follows each row),
// so an NDJSON replay writes the rows without decoding the body.
type result struct {
	body []byte
	rows []int
}

// cacheEntry is one cache slot. While the leading request is solving,
// done is open and res/err are unset; when the leader finishes it fills
// them and closes done. Entries are immutable after done closes, so
// waiters (and late readers of an evicted entry) can use them without
// the cache lock.
type cacheEntry struct {
	done chan struct{}
	res  result
	err  error
	key  string
	elem *list.Element // LRU position; nil while in-flight
}

// resultCache is an LRU result cache with single-flight deduplication:
// concurrent requests for the same canonical key solve once, and every
// caller gets the leader's exact bytes. Failed solves — including
// cancelled ones — are never cached: the failing entry is removed on
// completion, waiters observe the error and re-run the election, so one
// request's cancellation cannot poison the key for everyone else.
//
// Only completed successful entries occupy LRU capacity; in-flight
// entries are bounded by the server's solve semaphore, not the cache.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used; completed entries only

	// hits counts requests served without solving (cached or deduped onto
	// an in-flight solve); misses counts solve elections; evictions
	// counts completed entries dropped for capacity.
	hits, misses, evictions *obs.Counter
}

// newResultCache returns a cache holding at most max completed results.
// The counters must be non-nil (the server always registers them).
func newResultCache(max int, hits, misses, evictions *obs.Counter) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:       max,
		entries:   make(map[string]*cacheEntry),
		lru:       list.New(),
		hits:      hits,
		misses:    misses,
		evictions: evictions,
	}
}

// do returns the cached result for key, deduplicating concurrent callers:
// at most one caller at a time runs solve for a key, everyone else waits
// on its result. The bool reports whether the body was served without
// running solve (a cache hit or a successful dedup). ctx cancels only
// this caller's wait (and, via the solve closure's own context, its
// solve); other waiters are unaffected.
func (c *resultCache) do(ctx context.Context, key string, solve func() (result, error)) (result, bool, error) {
	for {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			select {
			case <-e.done:
				if e.err == nil {
					c.lru.MoveToFront(e.elem)
					c.mu.Unlock()
					c.hits.Inc()
					return e.res, true, nil
				}
				// A completed-with-error entry is removed by its leader
				// before done closes; seeing one here means we raced the
				// removal. Drop it and re-elect.
				delete(c.entries, key)
				c.mu.Unlock()
				continue
			default:
			}
			c.mu.Unlock()
			// In flight: wait for the leader, but never past our own
			// context — a slow solve must not pin a disconnected client.
			select {
			case <-e.done:
			case <-ctx.Done():
				return result{}, false, ctx.Err()
			}
			if e.err == nil {
				c.hits.Inc()
				return e.res, true, nil
			}
			// Leader failed (its error, or its cancellation). Re-run the
			// election; a waiter with a live context becomes the new
			// leader and solves afresh.
			continue
		}

		// No entry: become the leader for this key.
		e := &cacheEntry{done: make(chan struct{}), key: key}
		c.entries[key] = e
		c.mu.Unlock()
		c.misses.Inc()

		res, err := solve()

		c.mu.Lock()
		if err != nil {
			delete(c.entries, key) // failures are never cached
		} else {
			e.res = res
			e.elem = c.lru.PushFront(e)
			c.evictOver()
		}
		e.err = err
		c.mu.Unlock()
		close(e.done)
		return res, false, err
	}
}

// evictOver drops least-recently-used completed entries until the cache
// fits. Caller holds c.mu.
func (c *resultCache) evictOver() {
	for c.lru.Len() > c.max {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		c.evictions.Inc()
	}
}

// peek returns the completed cached result for key without solving or
// waiting: in-flight entries report a miss (streaming callers must not
// block on a buffered leader — they re-solve and stream). A hit counts
// as a cache hit and refreshes the entry's LRU position.
func (c *resultCache) peek(key string) (result, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok || e.elem == nil { // absent, or in flight (elem set only on completed success)
		c.mu.Unlock()
		return result{}, false
	}
	c.lru.MoveToFront(e.elem)
	res := e.res
	c.mu.Unlock()
	c.hits.Inc()
	return res, true
}

// missed counts one solve that bypassed do's election (a streaming
// solve after a peek miss), keeping the hit/miss ratio meaningful.
func (c *resultCache) missed() { c.misses.Inc() }

// put inserts a completed successful result for key — the streaming
// path's way of filling the cache after emitting its rows. If any entry
// for the key already exists (a concurrent buffered solve in flight, or
// a completed body) the call is a no-op: the existing entry's bytes stay
// authoritative, and an in-flight leader's waiters keep their contract.
func (c *resultCache) put(key string, res result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[key]; ok {
		return
	}
	done := make(chan struct{})
	close(done)
	e := &cacheEntry{done: done, res: res, key: key}
	c.entries[key] = e
	e.elem = c.lru.PushFront(e)
	c.evictOver()
}
