package markov

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestTransientDistributionCtxPreCancelled(t *testing.T) {
	c := repairable(1, 3, 0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TransientDistribution(ctx, c, 50, TransientOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTransientDistributionCtxDeadline(t *testing.T) {
	// A stiff chain (huge Λt) needs millions of series terms; an already
	// expired deadline must surface instead of grinding through them.
	c := NewChain()
	c.AddRate("up", "down", 1e6)
	c.AddRate("down", "up", 1e6)
	c.AddRate("up", "lost", 1e-3)
	c.SetAbsorbing("lost")
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := TransientDistribution(ctx, c, 10, TransientOptions{})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
