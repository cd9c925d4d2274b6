package img

import (
	"sync"
	"testing"
)

func TestPoolReuseAndClear(t *testing.T) {
	im := GetRGBA(16, 16)
	for i := range im.Pix {
		im.Pix[i] = 0.5
	}
	PutRGBA(im)
	// A smaller request must fit in the recycled capacity and come back
	// zeroed.
	im2 := GetRGBA(8, 8)
	if im2.W != 8 || im2.H != 8 {
		t.Fatalf("got %dx%d", im2.W, im2.H)
	}
	for i, p := range im2.Pix {
		if p != 0 {
			t.Fatalf("pixel %d not cleared: %v", i, p)
		}
	}
	PutRGBA(im2)
}

func TestPoolNilAndOversize(t *testing.T) {
	PutRGBA(nil) // must not panic
	PutFrame(nil)
	im := GetRGBARaw(3, 5)
	if im.W != 3 || im.H != 5 || len(im.Pix) != 3*5*4 {
		t.Fatalf("raw get wrong shape: %dx%d len %d", im.W, im.H, len(im.Pix))
	}
}

// Hammer the pools from many goroutines; run with -race this verifies
// the frame path is safe under concurrent broker clients.
func TestPoolConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				w := 4 + (seed+i)%13
				h := 4 + (seed*3+i)%9
				im := GetRGBA(w, h)
				im.Pix[0] = float32(seed)
				fr := GetFrameRaw(w, h)
				fr.Pix[0] = byte(i)
				PutFrame(fr)
				PutRGBA(im)
			}
		}(g)
	}
	wg.Wait()
	st := Pools()
	if st.Puts == 0 {
		t.Fatal("pool saw no puts")
	}
}
