package render

import (
	"sync"
	"sync/atomic"
	"time"
)

// tileRows is the scanline count of one parallel work unit. Small
// tiles keep the dynamic queue effective: a worker whose tile is all
// empty space or terminates early immediately steals the next tile
// instead of idling while a neighbor grinds through a dense one.
const tileRows = 4

// TileObservation reports one completed scanline tile of a parallel
// render to the package observer (see SetTileObserver). The
// observability layer bridges these into per-tile span histograms
// without this package importing it.
type TileObservation struct {
	// Y0, Y1 bound the tile's scanlines.
	Y0, Y1 int
	// Worker identifies which of Workers goroutines ran the tile.
	Worker, Workers int
	// Stats is the work the tile performed.
	Stats Stats
	// Duration is the tile's wall-clock render time.
	Duration time.Duration
}

var (
	tileObsMu sync.RWMutex
	tileObs   func(TileObservation)
)

// SetTileObserver installs the per-tile observer (nil disables). When
// no observer is installed the parallel path skips the clock reads.
func SetTileObserver(f func(TileObservation)) {
	tileObsMu.Lock()
	tileObs = f
	tileObsMu.Unlock()
}

func loadTileObserver() func(TileObservation) {
	tileObsMu.RLock()
	f := tileObs
	tileObsMu.RUnlock()
	return f
}

// renderTiled runs the row renderer over the image with a pool of
// workers pulling scanline tiles from a shared atomic cursor —
// dynamic scheduling, so a tile that early-terminates never idles a
// core. Each pixel is written by exactly one worker with the same
// arithmetic as the serial loop, so output is bit-identical to
// renderRows(0, h); per-tile Stats are summed, which is
// order-independent.
func renderTiled(rr *rowRenderer, workers int) Stats {
	h := rr.h
	rows := tileRows
	tiles := (h + rows - 1) / rows
	if tiles < workers {
		rows = 1
		tiles = h
	}
	if workers > tiles {
		workers = tiles
	}
	obs := loadTileObserver()
	var cursor atomic.Int64
	results := make([]Stats, workers)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			var st Stats
			for {
				ti := int(cursor.Add(1)) - 1
				if ti >= tiles {
					break
				}
				y0 := ti * rows
				y1 := y0 + rows
				if y1 > h {
					y1 = h
				}
				var t0 time.Time
				if obs != nil {
					t0 = time.Now()
				}
				ts := rr.renderRows(y0, y1)
				if obs != nil {
					obs(TileObservation{
						Y0: y0, Y1: y1,
						Worker: wk, Workers: workers,
						Stats:    ts,
						Duration: time.Since(t0),
					})
				}
				st.Rays += ts.Rays
				st.Samples += ts.Samples
				st.Pixels += ts.Pixels
				st.Skipped += ts.Skipped
			}
			results[wk] = st
		}(wk)
	}
	wg.Wait()
	var st Stats
	for _, r := range results {
		st.Rays += r.Rays
		st.Samples += r.Samples
		st.Pixels += r.Pixels
		st.Skipped += r.Skipped
	}
	return st
}
