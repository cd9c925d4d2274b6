package comm

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestInboxPostTakeAnySource(t *testing.T) {
	testutil.CheckGoroutines(t)
	const p = 5
	err := Run(p, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Post(0, 7, fmt.Sprintf("from %d", c.Rank()), 10)
			return nil
		}
		var srcs []int
		for i := 0; i < p-1; i++ {
			src, payload, nb := c.Take(7)
			if nb != 10 {
				return fmt.Errorf("payload bytes %d", nb)
			}
			if want := fmt.Sprintf("from %d", src); payload != want {
				return fmt.Errorf("src %d carried %q", src, payload)
			}
			srcs = append(srcs, src)
		}
		sort.Ints(srcs)
		for i, s := range srcs {
			if s != i+1 {
				return fmt.Errorf("sources %v, want 1..%d", srcs, p-1)
			}
		}
		if c.World().BytesReceivedBy(0) != 10*(p-1) {
			return fmt.Errorf("recv bytes %d", c.World().BytesReceivedBy(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInboxTagFilteringPreservesOtherTags(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			c.Post(0, 1, "first-of-1", 0)
			c.Post(0, 2, "only-of-2", 0)
			c.Post(0, 1, "second-of-1", 0)
			return nil
		}
		// Taking tag 2 must skip over the queued tag-1 message without
		// consuming it.
		if _, payload, _ := c.Take(2); payload != "only-of-2" {
			return fmt.Errorf("tag 2 got %q", payload)
		}
		if _, payload, _ := c.Take(1); payload != "first-of-1" {
			return fmt.Errorf("tag 1 first got %q", payload)
		}
		if _, payload, _ := c.Take(1); payload != "second-of-1" {
			return fmt.Errorf("tag 1 second got %q", payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInboxPostFromHelperGoroutine(t *testing.T) {
	testutil.CheckGoroutines(t)
	const tiles = 8
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 1 {
			// Concurrent posts from worker goroutines, as the render
			// pool does with finished tiles.
			var wg sync.WaitGroup
			for i := 0; i < tiles; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					c.Post(0, 9, i, 1)
				}(i)
			}
			wg.Wait()
			return nil
		}
		got := map[int]bool{}
		for i := 0; i < tiles; i++ {
			_, payload, _ := c.Take(9)
			got[payload.(int)] = true
		}
		if len(got) != tiles {
			return fmt.Errorf("got %d distinct tiles, want %d", len(got), tiles)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInboxTakeFailsFastOnExpectedPeer(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(3, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			c.Post(0, 5, "before dying", 0)
			c.FailSelf()
			return nil
		case 2:
			return nil // never posts
		}
		// Data posted before the failure still delivers.
		if _, payload, _ := c.Take(5, 1, 2); payload != "before dying" {
			return fmt.Errorf("got %q", payload)
		}
		// Rank 1 is dead and rank 2 owes nothing under this tag once we
		// stop expecting it; waiting on rank 1 must fail fast, not hang.
		ferr := func() (err error) {
			defer func() {
				if rec := recover(); rec != nil {
					if fe := AsFailure(rec); fe != nil {
						err = fe
						return
					}
					panic(rec)
				}
			}()
			c.Take(5, 1)
			return errors.New("take returned without a message")
		}()
		if !errors.Is(ferr, ErrRankFailed) {
			return fmt.Errorf("expected ErrRankFailed, got %v", ferr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInboxTakeTimeout(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := RunWith(2, RunConfig{RecvTimeout: 30 * time.Millisecond}, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		ferr := func() (err error) {
			defer func() {
				if rec := recover(); rec != nil {
					if fe := AsFailure(rec); fe != nil {
						err = fe
						return
					}
					panic(rec)
				}
			}()
			c.Take(11)
			return errors.New("take returned without a message")
		}()
		if !errors.Is(ferr, ErrRecvTimeout) {
			return fmt.Errorf("expected ErrRecvTimeout, got %v", ferr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
