package jpegc

import "math"

// cosTab[u][x] = c(u) * cos((2x+1) u pi / 16) / 2, the orthonormal
// DCT-II basis used by both the forward transform and the inverse.
var cosTab [8][8]float64

func init() {
	for u := 0; u < 8; u++ {
		cu := 1.0
		if u == 0 {
			cu = 1 / math.Sqrt2
		}
		for x := 0; x < 8; x++ {
			cosTab[u][x] = cu * math.Cos(float64(2*x+1)*float64(u)*math.Pi/16) / 2
		}
	}
}

// fdct2d computes the 2D forward DCT of an 8x8 block in place
// (row-major, level-shifted samples in, frequency coefficients out).
func fdct2d(b *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for u := 0; u < 8; u++ {
			var s float64
			for x := 0; x < 8; x++ {
				s += cosTab[u][x] * b[y*8+x]
			}
			tmp[y*8+u] = s
		}
	}
	// Columns.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			var s float64
			for y := 0; y < 8; y++ {
				s += cosTab[v][y] * tmp[y*8+u]
			}
			b[v*8+u] = s
		}
	}
}

// idct2dSparse computes the float inverse DCT of a block whose
// non-zero coefficients all lie in the columns named by colMask (bit u
// set for column u): coefficients in, spatial samples out. It is the
// plain separable sum over all 64 terms with the terms that cannot
// change it left out. A zero coefficient contributes c*0 = ±0, and
// s + ±0 == s for every s (a sum that starts at +0 stays +0 until its
// first non-zero term), so each retained sum adds the same values in
// the same order as the full one and rounds identically.
func idct2dSparse(b *[64]float64, colMask uint8) {
	var tmp [64]float64
	var cols [8]int
	n := 0
	// Columns.
	for u := 0; u < 8; u++ {
		if colMask&(1<<u) == 0 {
			continue
		}
		cols[n] = u
		n++
		for v := 0; v < 8; v++ {
			c := b[v*8+u]
			if c == 0 {
				continue
			}
			basis := &cosTab[v]
			for y := 0; y < 8; y++ {
				tmp[y*8+u] += basis[y] * c
			}
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		var out [8]float64
		for _, u := range cols[:n] {
			t := tmp[y*8+u]
			basis := &cosTab[u]
			for x := range out {
				out[x] += basis[x] * t
			}
		}
		copy(b[y*8:y*8+8], out[:])
	}
}
