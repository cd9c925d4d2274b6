package comm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/testutil"
)

func TestNewWorldValidation(t *testing.T) {
	testutil.CheckGoroutines(t)
	if _, err := NewWorld(0); err == nil {
		t.Fatal("want error for size 0")
	}
	w, err := NewWorld(4)
	if err != nil || w.size != 4 {
		t.Fatalf("NewWorld(4): %v %v", w, err)
	}
}

func TestPointToPoint(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, "hello", 5)
			return nil
		}
		got, n := c.Recv(0, 7)
		if got != "hello" || n != 5 {
			return fmt.Errorf("got %v %d", got, n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagMatchingOutOfOrder(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, "first", 0)
			c.Send(1, 2, "second", 0)
			return nil
		}
		// Receive tag 2 before tag 1.
		got2, _ := c.Recv(0, 2)
		got1, _ := c.Recv(0, 1)
		if got1 != "first" || got2 != "second" {
			return fmt.Errorf("tag matching broken: %v %v", got1, got2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerTag(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		const N = 100
		if c.Rank() == 0 {
			for i := 0; i < N; i++ {
				c.Send(1, 3, i, 0)
			}
			return nil
		}
		for i := 0; i < N; i++ {
			got, _ := c.Recv(0, 3)
			if got != i {
				return fmt.Errorf("message %d arrived as %v", i, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnyTag(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 42, "x", 0)
			return nil
		}
		got, _ := c.Recv(0, AnyTag)
		if got != "x" {
			return fmt.Errorf("got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllPairsTraffic(t *testing.T) {
	testutil.CheckGoroutines(t)
	const P = 6
	err := Run(P, func(c *Comm) error {
		for dst := 0; dst < P; dst++ {
			if dst != c.Rank() {
				c.Send(dst, 1, c.Rank()*100+dst, 8)
			}
		}
		for src := 0; src < P; src++ {
			if src != c.Rank() {
				got, _ := c.Recv(src, 1)
				if got != src*100+c.Rank() {
					return fmt.Errorf("rank %d from %d: %v", c.Rank(), src, got)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommunicator(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Split 8 ranks into 2 groups of 4; exchange within each group.
	err := Run(8, func(c *Comm) error {
		gid := c.Rank() / 4
		members := []int{gid * 4, gid*4 + 1, gid*4 + 2, gid*4 + 3}
		g, err := c.Group(members)
		if err != nil {
			return err
		}
		if g.Size() != 4 {
			return fmt.Errorf("group size %d", g.Size())
		}
		if g.Rank() != c.Rank()%4 {
			return fmt.Errorf("group rank %d for world rank %d", g.Rank(), c.Rank())
		}
		// Ring send within the group; tag namespaced by group.
		next := (g.Rank() + 1) % 4
		prev := (g.Rank() + 3) % 4
		tag := 100 + gid
		g.Send(next, tag, c.Rank(), 4)
		got, _ := g.Recv(prev, tag)
		wantWorld := gid*4 + prev
		if got != wantWorld {
			return fmt.Errorf("group %d rank %d got %v want %d", gid, g.Rank(), got, wantWorld)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupErrors(t *testing.T) {
	testutil.CheckGoroutines(t)
	err := Run(4, func(c *Comm) error {
		if c.Rank() != 0 {
			return nil
		}
		if _, err := c.Group([]int{0, 9}); err == nil {
			return fmt.Errorf("want out-of-range error")
		}
		if _, err := c.Group([]int{1, 2}); err == nil {
			return fmt.Errorf("want non-member error")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	testutil.CheckGoroutines(t)
	w, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	ranks := []int{0, 1}
	c0 := &Comm{world: w, rank: 0, ranks: ranks}
	c1 := &Comm{world: w, rank: 1, ranks: ranks}
	c0.Send(1, 1, "abc", 3)
	c0.Send(1, 1, "defg", 4)
	c1.Recv(0, 1)
	c1.Recv(0, 1)
	if w.BytesSent() != 7 {
		t.Fatalf("BytesSent = %d, want 7", w.BytesSent())
	}
	if w.MessagesSent() != 2 {
		t.Fatalf("MessagesSent = %d, want 2", w.MessagesSent())
	}
}

// A failing rank must not leave peers blocked in Recv forever: the
// world aborts and Run returns the real error.
func TestAbortUnblocksRecv(t *testing.T) {
	testutil.CheckGoroutines(t)
	boom := fmt.Errorf("rank 0 failed")
	done := make(chan error, 1)
	go func() {
		done <- Run(4, func(c *Comm) error {
			if c.Rank() == 0 {
				return boom
			}
			// Blocks forever without the abort path.
			c.Recv(0, 1)
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != boom {
			t.Fatalf("got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run never returned — abort broken")
	}
}

func TestRunPropagatesError(t *testing.T) {
	testutil.CheckGoroutines(t)
	sentinel := fmt.Errorf("boom")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if err != sentinel {
		t.Fatalf("got %v", err)
	}
}

func BenchmarkSendRecv(b *testing.B) {
	w, _ := NewWorld(2)
	ranks := []int{0, 1}
	c0 := &Comm{world: w, rank: 0, ranks: ranks}
	c1 := &Comm{world: w, rank: 1, ranks: ranks}
	payload := make([]byte, 1024)
	b.SetBytes(1024)
	b.ReportAllocs()
	done := make(chan struct{})
	go func() {
		for i := 0; i < b.N; i++ {
			c1.Recv(0, 1)
		}
		close(done)
	}()
	for i := 0; i < b.N; i++ {
		c0.Send(1, 1, payload, 1024)
	}
	<-done
}
