package simcache

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A cancelled leader must not poison followers: the follower with a live
// context retries, becomes the new leader, and computes successfully.
func TestDoContextCancelledLeaderDoesNotPoisonFollowers(t *testing.T) {
	c := New[int]()
	k := KeyOf("leader-cancel")

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(leaderCtx, k, func(ctx context.Context) (int, error) {
			close(leaderIn)
			<-ctx.Done() // simulate in-flight work aborted by the request deadline
			return 0, ctx.Err()
		})
		leaderDone <- err
	}()
	<-leaderIn // the leader holds the flight

	followerDone := make(chan int, 1)
	go func() {
		v, _, err := c.DoContext(context.Background(), k, func(context.Context) (int, error) {
			return 42, nil
		})
		if err != nil {
			t.Errorf("follower: %v", err)
		}
		followerDone <- v
	}()

	time.Sleep(10 * time.Millisecond) // let the follower block on the flight
	cancelLeader()

	if err := <-leaderDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader returned %v, want context.Canceled", err)
	}
	select {
	case v := <-followerDone:
		if v != 42 {
			t.Fatalf("follower got %d, want 42 (own computation)", v)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("follower never recovered from the cancelled leader's flight")
	}
	if v, ok := c.Get(k); !ok || v != 42 {
		t.Fatalf("cache holds (%d, %v), want the follower's 42", v, ok)
	}
}

// A cancelled waiter stops waiting even while another request's flight is
// still in progress, and the flight itself is unaffected.
func TestDoContextCancelledWaiterReleases(t *testing.T) {
	c := New[int]()
	k := KeyOf("waiter-cancel")

	release := make(chan struct{})
	leaderIn := make(chan struct{})
	leaderDone := make(chan int, 1)
	go func() {
		v, _, err := c.DoContext(context.Background(), k, func(context.Context) (int, error) {
			close(leaderIn)
			<-release
			return 7, nil
		})
		if err != nil {
			t.Errorf("leader: %v", err)
		}
		leaderDone <- v
	}()
	<-leaderIn

	waiterCtx, cancelWaiter := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		_, _, err := c.DoContext(waiterCtx, k, func(context.Context) (int, error) {
			t.Error("waiter must never compute while the flight is live")
			return 0, nil
		})
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancelWaiter()

	select {
	case err := <-waiterDone:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter stayed blocked on the in-flight computation")
	}

	close(release)
	if v := <-leaderDone; v != 7 {
		t.Fatalf("leader got %d, want 7", v)
	}
}

// A pre-cancelled context computes nothing and leaves the cache untouched.
func TestDoContextPreCancelled(t *testing.T) {
	c := New[int]()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.DoContext(ctx, KeyOf("dead"), func(context.Context) (int, error) {
		t.Error("compute ran under a dead context")
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if st := c.Stats(); st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("dead context touched the cache: %+v", st)
	}
}
