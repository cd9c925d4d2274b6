package wan

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestTransferTime(t *testing.T) {
	p := Profile{Latency: 10 * time.Millisecond, Bandwidth: 1000}
	got := p.TransferTime(500)
	want := 10*time.Millisecond + 500*time.Millisecond
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
	// Unlimited bandwidth: latency only.
	u := Profile{Latency: 5 * time.Millisecond}
	if u.TransferTime(1<<20) != 5*time.Millisecond {
		t.Fatal("unlimited transfer time wrong")
	}
}

func TestByName(t *testing.T) {
	for _, n := range []string{"nasa-ucd", "japan-ucd", "lan", "unlimited"} {
		p, err := ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		if n != "unlimited" && p.Name != n {
			t.Fatalf("profile %q has name %q", n, p.Name)
		}
	}
	if _, err := ByName("dialup"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestJapanSlowerThanNASA(t *testing.T) {
	n := NASAUCD().TransferTime(196608) // raw 256^2 frame
	j := JapanUCD().TransferTime(196608)
	if j <= n {
		t.Fatalf("Japan link (%v) must be slower than NASA link (%v)", j, n)
	}
	// Paper: X transfer Japan ~2x NASA.
	ratio := float64(j) / float64(n)
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("Japan/NASA transfer ratio %.2f outside [1.5,3]", ratio)
	}
}

// Shaped writes must take approximately size/bandwidth.
func TestShapedThroughput(t *testing.T) {
	p := Profile{Bandwidth: 1e6, Burst: 16 << 10} // 1 MB/s
	a, b := net.Pipe()
	shaped := Shape(a, p)
	const N = 100 << 10 // 100 KB -> ~100 ms
	done := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, b, N)
		done <- err
	}()
	start := time.Now()
	buf := make([]byte, N)
	if _, err := shaped.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	// Initial bucket holds 16 KB, so expect ~(N-16K)/1MB = 86 ms.
	if el < 60*time.Millisecond || el > 300*time.Millisecond {
		t.Fatalf("100KB at 1MB/s took %v", el)
	}
}

func TestLatencyCharged(t *testing.T) {
	p := Profile{Latency: 50 * time.Millisecond}
	a, b := net.Pipe()
	shaped := Shape(a, p)
	go io.CopyN(io.Discard, b, 4)
	start := time.Now()
	if _, err := shaped.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 40*time.Millisecond {
		t.Fatalf("latency not charged: %v", el)
	}
}

func TestUnshapedPassThrough(t *testing.T) {
	a, b := net.Pipe()
	shaped := Shape(a, Unlimited())
	go io.CopyN(io.Discard, b, 1<<20)
	start := time.Now()
	buf := make([]byte, 1<<20)
	if _, err := shaped.Write(buf); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("unshaped write took %v", el)
	}
}

// Two connections on a Shared link must split its bandwidth: pushing
// the same total volume through two shared connections concurrently
// takes about as long as pushing it through one.
func TestSharedLinkContention(t *testing.T) {
	const each = 50 << 10 // 50 KB per flow
	prof := Profile{Bandwidth: 1e6, Burst: 4 << 10}

	run := func(flows int, shared *Shared) time.Duration {
		start := time.Now()
		done := make(chan error, flows)
		for i := 0; i < flows; i++ {
			a, b := net.Pipe()
			var w net.Conn
			if shared != nil {
				w = shared.Wrap(a)
			} else {
				w = Shape(a, prof)
			}
			go func() {
				_, err := io.CopyN(io.Discard, b, each)
				done <- err
			}()
			go func() {
				buf := make([]byte, each)
				w.Write(buf)
			}()
		}
		for i := 0; i < flows; i++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}

	single := run(1, nil)           // 50 KB over a private 1 MB/s link
	both := run(2, NewShared(prof)) // 100 KB over one shared 1 MB/s link
	private := run(2, nil)          // 2 x 50 KB over two private links
	if both.Seconds() < 1.5*single.Seconds() {
		t.Fatalf("shared link did not contend: 2 flows %v vs 1 flow %v", both, single)
	}
	if private.Seconds() > 1.5*single.Seconds() {
		t.Fatalf("private links contended unexpectedly: %v vs %v", private, single)
	}
}

// Shaped reads must take approximately size/bandwidth, whatever the
// writer does.
func TestShapeReadsThroughput(t *testing.T) {
	p := Profile{Bandwidth: 1e6, Burst: 16 << 10} // 1 MB/s
	a, b := net.Pipe()
	shaped := ShapeReads(b, p)
	const N = 100 << 10 // 100 KB -> ~100 ms
	go func() {
		buf := make([]byte, N)
		for sent := 0; sent < N; {
			n, err := a.Write(buf[sent:])
			if err != nil {
				return
			}
			sent += n
		}
	}()
	start := time.Now()
	if _, err := io.CopyN(io.Discard, shaped, N); err != nil {
		t.Fatal(err)
	}
	el := time.Since(start)
	if el < 60*time.Millisecond || el > 300*time.Millisecond {
		t.Fatalf("reading 100KB at 1MB/s took %v", el)
	}
}

func TestShapeReadsUnshapedPassThrough(t *testing.T) {
	a, b := net.Pipe()
	shaped := ShapeReads(b, Profile{})
	go a.Write(make([]byte, 1<<10))
	start := time.Now()
	if _, err := io.CopyN(io.Discard, shaped, 1<<10); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("unshaped read took %v", el)
	}
}
