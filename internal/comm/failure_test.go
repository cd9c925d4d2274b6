package comm

import (
	"errors"
	"testing"
	"time"

	"repro/internal/testutil"
)

// recvGuarded receives and converts a comm failure panic to an error,
// the way degradation-aware callers do.
func recvGuarded(c *Comm, src, tag int) (payload any, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			if fe := AsFailure(rec); fe != nil {
				err = fe
				return
			}
			panic(rec)
		}
	}()
	payload, _ = c.Recv(src, tag)
	return payload, nil
}

func TestRecvTimeoutSurfacesAsError(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := RunWith(2, RunConfig{RecvTimeout: 50 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 7) // rank 1 never sends
		}
		return nil
	})
	if !errors.Is(err, ErrRecvTimeout) {
		t.Fatalf("err = %v, want ErrRecvTimeout", err)
	}
}

func TestMarkFailedWakesBlockedReceiver(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Recv(1, 7)
			return nil
		}
		time.Sleep(20 * time.Millisecond) // let rank 0 block first
		c.FailSelf()
		return nil
	})
	if !errors.Is(err, ErrRankFailed) {
		t.Fatalf("err = %v, want ErrRankFailed", err)
	}
}

func TestQueuedMessagesDeliverBeforeFailure(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Send(0, 7, "last words", 0)
			c.FailSelf()
			return nil
		}
		// The message sent before the peer died must still deliver.
		got, err := recvGuarded(c, 1, 7)
		if err != nil {
			return err
		}
		if got != "last words" {
			t.Errorf("payload = %v", got)
		}
		// The next receive must fail fast, not hang.
		if _, err := recvGuarded(c, 1, 7); !errors.Is(err, ErrRankFailed) {
			t.Errorf("second recv err = %v, want ErrRankFailed", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFailureScopedToWaiters(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Ranks 2,3 never touch the failed rank and must finish normally.
	done := make(chan int, 4)
	err := Run(4, func(c *Comm) error {
		switch c.Rank() {
		case 0:
			if _, err := recvGuarded(c, 1, 7); !errors.Is(err, ErrRankFailed) {
				t.Errorf("rank 0 recv err = %v", err)
			}
		case 1:
			time.Sleep(10 * time.Millisecond)
			c.FailSelf()
		case 2:
			c.Send(3, 9, 42, 0)
		case 3:
			if got, _ := c.Recv(2, 9); got != 42 {
				t.Errorf("rank 3 got %v", got)
			}
		}
		done <- c.Rank()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 4 {
		t.Fatalf("%d ranks finished, want 4", len(done))
	}
}

func TestAsFailureIgnoresForeignPanics(t *testing.T) {
	testutil.CheckGoroutines(t)
	if err := AsFailure("boom"); err != nil {
		t.Fatalf("AsFailure(non-comm) = %v, want nil", err)
	}
	if err := AsFailure(abortPanic{}); err != nil {
		t.Fatalf("AsFailure(abortPanic) = %v, want nil (aborts re-panic)", err)
	}
}
