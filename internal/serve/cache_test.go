package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestCache(max int) (*resultCache, *obs.Registry) {
	reg := obs.NewRegistry()
	c := newResultCache(max,
		reg.Counter("serve.cache.hits"),
		reg.Counter("serve.cache.misses"),
		reg.Counter("serve.cache.evictions"))
	return c, reg
}

func TestCacheSolvesOnceUnderConcurrency(t *testing.T) {
	c, reg := newTestCache(16)
	const goroutines = 32
	var solves atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	bodies := make([]result, goroutines)
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			bodies[g], _, errs[g] = c.do(context.Background(), "k", func() (result, error) {
				<-release // hold every waiter in the dedup path
				solves.Add(1)
				return result{body: []byte("result")}, nil
			})
		}(g)
	}
	time.Sleep(20 * time.Millisecond) // let the waiters pile up
	close(release)
	wg.Wait()
	if n := solves.Load(); n != 1 {
		t.Errorf("solve ran %d times, want exactly 1", n)
	}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !bytes.Equal(bodies[g].body, []byte("result")) {
			t.Errorf("goroutine %d got %q", g, bodies[g])
		}
	}
	if h := reg.Counter("serve.cache.hits").Value(); h != goroutines-1 {
		t.Errorf("hits = %d, want %d", h, goroutines-1)
	}
	if m := reg.Counter("serve.cache.misses").Value(); m != 1 {
		t.Errorf("misses = %d, want 1", m)
	}
}

func TestCacheDistinctKeysSolveIndependently(t *testing.T) {
	c, _ := newTestCache(16)
	var solves atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g%8)
			res, _, err := c.do(context.Background(), key, func() (result, error) {
				solves.Add(1)
				return result{body: []byte(key)}, nil
			})
			if body := res.body; err != nil || string(body) != key {
				t.Errorf("key %s: body %q err %v", key, body, err)
			}
		}(g)
	}
	wg.Wait()
	// Exactly one solve per distinct key, however the 24 calls raced.
	if n := solves.Load(); n != 8 {
		t.Errorf("solves = %d, want 8", n)
	}
}

func TestCacheLeaderFailureDoesNotPoison(t *testing.T) {
	// A leader whose solve fails (e.g. its context was cancelled) must
	// leave the key solvable: waiters re-elect and succeed.
	c, _ := newTestCache(16)
	leaderStarted := make(chan struct{})
	leaderFail := make(chan struct{})

	var waiter result
	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, err := c.do(context.Background(), "k", func() (result, error) {
			close(leaderStarted)
			<-leaderFail
			return result{}, context.Canceled // the leader's own request died
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("leader err = %v, want context.Canceled", err)
		}
	}()
	go func() {
		defer wg.Done()
		<-leaderStarted // guarantee we dedup onto the failing leader
		waiter, _, waiterErr = c.do(context.Background(), "k", func() (result, error) {
			return result{body: []byte("recovered")}, nil
		})
	}()
	time.Sleep(20 * time.Millisecond)
	close(leaderFail)
	wg.Wait()
	if waiterErr != nil {
		t.Fatalf("waiter err after leader failure: %v", waiterErr)
	}
	if string(waiter.body) != "recovered" {
		t.Fatalf("waiter body %q, want re-elected solve result", waiter.body)
	}
	if c.len() != 1 {
		t.Errorf("cache holds %d entries, want 1 (the recovered result)", c.len())
	}
	// The key must now be a plain cache hit.
	res, hit, err := c.do(context.Background(), "k", func() (result, error) {
		t.Error("cached key re-solved")
		return result{}, nil
	})
	if err != nil || !hit || string(res.body) != "recovered" {
		t.Errorf("post-recovery lookup: body %q hit %v err %v", res.body, hit, err)
	}
}

func TestCacheWaiterCancellationLeavesLeaderAlone(t *testing.T) {
	c, _ := newTestCache(16)
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, _, err := c.do(context.Background(), "k", func() (result, error) {
			close(started)
			<-release
			return result{body: []byte("slow")}, nil
		})
		if err != nil || string(res.body) != "slow" {
			t.Errorf("leader: body %q err %v", res.body, err)
		}
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.do(ctx, "k", func() (result, error) {
		t.Error("cancelled waiter must not solve")
		return result{}, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v, want context.Canceled", err)
	}
	close(release)
	<-done
}

func TestCacheLRUEviction(t *testing.T) {
	c, reg := newTestCache(2)
	put := func(key string) {
		t.Helper()
		if _, _, err := c.do(context.Background(), key, func() (result, error) {
			return result{body: []byte(key)}, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	// Touch "a" so "b" is the LRU victim.
	if _, hit, _ := c.do(context.Background(), "a", nil); !hit {
		t.Fatal("expected hit for a")
	}
	put("c") // evicts b
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	var resolved atomic.Bool
	if _, hit, _ := c.do(context.Background(), "b", func() (result, error) {
		resolved.Store(true)
		return result{body: []byte("b2")}, nil
	}); hit || !resolved.Load() {
		t.Error("evicted key b should re-solve")
	}
	if ev := reg.Counter("serve.cache.evictions").Value(); ev == 0 {
		t.Error("eviction counter did not move")
	}
}
