// Package img provides the image types used along the rendering and
// transport pipeline: floating-point RGBA images with premultiplied
// alpha for compositing, byte-RGB frames for transport and display,
// sub-image regions, assembly, and quality metrics.
package img

import (
	"errors"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"io"
	"math"
	"os"
)

// RGBA is a floating-point image with premultiplied alpha, the working
// format of the renderer and the compositor. Pix is row-major, 4
// floats per pixel (R,G,B,A), each nominally in [0,1].
type RGBA struct {
	W, H int
	Pix  []float32
}

// NewRGBA allocates a transparent-black image.
func NewRGBA(w, h int) *RGBA {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("img: negative dimensions %dx%d", w, h))
	}
	return &RGBA{W: w, H: h, Pix: make([]float32, w*h*4)}
}

// At returns the pixel at (x,y).
func (im *RGBA) At(x, y int) (r, g, b, a float32) {
	i := (y*im.W + x) * 4
	return im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3]
}

// Set stores a pixel at (x,y).
func (im *RGBA) Set(x, y int, r, g, b, a float32) {
	i := (y*im.W + x) * 4
	im.Pix[i], im.Pix[i+1], im.Pix[i+2], im.Pix[i+3] = r, g, b, a
}

// Clear resets every pixel to transparent black.
func (im *RGBA) Clear() {
	for i := range im.Pix {
		im.Pix[i] = 0
	}
}

// Clone returns a deep copy.
func (im *RGBA) Clone() *RGBA {
	c := NewRGBA(im.W, im.H)
	copy(c.Pix, im.Pix)
	return c
}

// OverPixel composites front-to-back: dst = dst OVER src, where dst is
// the front (already accumulated) premultiplied pixel and src lies
// behind it. Operating on 4-float slices avoids per-pixel indexing in
// the compositor's inner loop.
func OverPixel(dst, src []float32) {
	t := 1 - dst[3]
	dst[0] += t * src[0]
	dst[1] += t * src[1]
	dst[2] += t * src[2]
	dst[3] += t * src[3]
}

// Over composites im (front) over bg (back) in place into im. The two
// images must have identical dimensions.
func (im *RGBA) Over(bg *RGBA) error {
	if im.W != bg.W || im.H != bg.H {
		return fmt.Errorf("img: Over size mismatch %dx%d vs %dx%d", im.W, im.H, bg.W, bg.H)
	}
	for i := 0; i < len(im.Pix); i += 4 {
		OverPixel(im.Pix[i:i+4:i+4], bg.Pix[i:i+4:i+4])
	}
	return nil
}

// Frame is an 8-bit RGB image, the transport and display format. Pix
// is row-major, 3 bytes per pixel.
type Frame struct {
	W, H int
	Pix  []byte
}

// NewFrame allocates a black frame.
func NewFrame(w, h int) *Frame {
	if w < 0 || h < 0 {
		panic(fmt.Sprintf("img: negative dimensions %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]byte, w*h*3)}
}

// Bytes returns the raw pixel size of the frame.
func (f *Frame) Bytes() int { return len(f.Pix) }

// At returns the pixel at (x,y).
func (f *Frame) At(x, y int) (r, g, b byte) {
	i := (y*f.W + x) * 3
	return f.Pix[i], f.Pix[i+1], f.Pix[i+2]
}

// Set stores the pixel at (x,y).
func (f *Frame) Set(x, y int, r, g, b byte) {
	i := (y*f.W + x) * 3
	f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
}

// Clone returns a deep copy of the frame.
func (f *Frame) Clone() *Frame {
	c := NewFrame(f.W, f.H)
	copy(c.Pix, f.Pix)
	return c
}

// Equal reports whether two frames are pixel-identical.
func (f *Frame) Equal(o *Frame) bool {
	if f.W != o.W || f.H != o.H {
		return false
	}
	for i := range f.Pix {
		if f.Pix[i] != o.Pix[i] {
			return false
		}
	}
	return true
}

// ToFrame converts the float image to 8-bit RGB over an opaque
// background of the given gray level, un-premultiplying is not needed
// because the background blend works directly on premultiplied values:
// out = rgb + (1-a)*bg.
func (im *RGBA) ToFrame(bg float32) *Frame {
	return im.ToFrameInto(NewFrame(im.W, im.H), bg)
}

// ToFrameInto is ToFrame writing into dst, which must match the image
// dimensions; it returns dst. Paired with GetFrameRaw/PutFrame this
// keeps the per-frame encode path allocation-free.
func (im *RGBA) ToFrameInto(dst *Frame, bg float32) *Frame {
	if dst.W != im.W || dst.H != im.H {
		panic(fmt.Sprintf("img: ToFrameInto %dx%d frame for %dx%d image", dst.W, dst.H, im.W, im.H))
	}
	for p, i := 0, 0; p < len(im.Pix); p, i = p+4, i+3 {
		a := im.Pix[p+3]
		t := (1 - a) * bg
		dst.Pix[i] = quantize(im.Pix[p] + t)
		dst.Pix[i+1] = quantize(im.Pix[p+1] + t)
		dst.Pix[i+2] = quantize(im.Pix[p+2] + t)
	}
	return dst
}

func quantize(v float32) byte {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return byte(v*255 + 0.5)
}

// Region is a rectangular sub-area of a frame: [X0,X1) x [Y0,Y1).
type Region struct {
	X0, Y0, X1, Y1 int
}

// W and H return the region extents.
func (r Region) W() int { return r.X1 - r.X0 }

// H returns the region height.
func (r Region) H() int { return r.Y1 - r.Y0 }

// Empty reports whether the region has no pixels.
func (r Region) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// Pixels returns the pixel count of the region.
func (r Region) Pixels() int {
	if r.Empty() {
		return 0
	}
	return r.W() * r.H()
}

func (r Region) String() string { return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1) }

// SubFrame extracts a region of the frame as a standalone frame.
func (f *Frame) SubFrame(r Region) (*Frame, error) {
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > f.W || r.Y1 > f.H || r.Empty() {
		return nil, fmt.Errorf("img: region %v outside frame %dx%d", r, f.W, f.H)
	}
	s := NewFrame(r.W(), r.H())
	for y := 0; y < s.H; y++ {
		src := ((r.Y0+y)*f.W + r.X0) * 3
		dst := y * s.W * 3
		copy(s.Pix[dst:dst+s.W*3], f.Pix[src:src+s.W*3])
	}
	return s, nil
}

// Blit copies sub into f with sub's top-left corner at region r's
// origin; sub must match r's extents and r must lie inside f.
func (f *Frame) Blit(sub *Frame, r Region) error {
	if sub.W != r.W() || sub.H != r.H() {
		return fmt.Errorf("img: blit size %dx%d != region %v", sub.W, sub.H, r)
	}
	if r.X0 < 0 || r.Y0 < 0 || r.X1 > f.W || r.Y1 > f.H {
		return fmt.Errorf("img: region %v outside frame %dx%d", r, f.W, f.H)
	}
	for y := 0; y < sub.H; y++ {
		dst := ((r.Y0+y)*f.W + r.X0) * 3
		src := y * sub.W * 3
		copy(f.Pix[dst:dst+sub.W*3], sub.Pix[src:src+sub.W*3])
	}
	return nil
}

// SplitRows partitions the frame's scanlines into n near-equal
// horizontal bands, the screen-space decomposition used by binary-swap
// result gathering and by parallel compression.
func SplitRows(w, h, n int) ([]Region, error) {
	if n < 1 || n > h {
		return nil, fmt.Errorf("img: cannot split %d rows into %d bands", h, n)
	}
	out := make([]Region, n)
	for i := 0; i < n; i++ {
		y0 := i * h / n
		y1 := (i + 1) * h / n
		out[i] = Region{0, y0, w, y1}
	}
	return out, nil
}

// Assemble stitches sub-frames into one w*h frame according to their
// regions. Regions must tile or partially cover the target; uncovered
// pixels stay black.
func Assemble(w, h int, subs []*Frame, regions []Region) (*Frame, error) {
	if len(subs) != len(regions) {
		return nil, errors.New("img: subs/regions length mismatch")
	}
	out := NewFrame(w, h)
	for i, s := range subs {
		if err := out.Blit(s, regions[i]); err != nil {
			return nil, fmt.Errorf("img: assembling piece %d: %w", i, err)
		}
	}
	return out, nil
}

// MSE returns the mean squared error between two frames of identical
// dimensions.
func MSE(a, b *Frame) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("img: MSE size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	if len(a.Pix) == 0 {
		return 0, nil
	}
	var s float64
	for i := range a.Pix {
		d := float64(a.Pix[i]) - float64(b.Pix[i])
		s += d * d
	}
	return s / float64(len(a.Pix)), nil
}

// PSNR returns the peak signal-to-noise ratio in dB between two frames;
// identical frames return +Inf.
func PSNR(a, b *Frame) (float64, error) {
	mse, err := MSE(a, b)
	if err != nil {
		return 0, err
	}
	if mse == 0 {
		return math.Inf(1), nil
	}
	return 10 * math.Log10(255*255/mse), nil
}

// ToImage converts the frame to a standard library image for encoding.
func (f *Frame) ToImage() *image.RGBA {
	im := image.NewRGBA(image.Rect(0, 0, f.W, f.H))
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, g, b := f.At(x, y)
			im.SetRGBA(x, y, color.RGBA{r, g, b, 255})
		}
	}
	return im
}

// FromImage converts any stdlib image into a Frame.
func FromImage(src image.Image) *Frame {
	b := src.Bounds()
	f := NewFrame(b.Dx(), b.Dy())
	for y := 0; y < f.H; y++ {
		for x := 0; x < f.W; x++ {
			r, g, bl, _ := src.At(b.Min.X+x, b.Min.Y+y).RGBA()
			f.Set(x, y, byte(r>>8), byte(g>>8), byte(bl>>8))
		}
	}
	return f
}

// WritePNG encodes the frame as PNG.
func (f *Frame) WritePNG(w io.Writer) error { return png.Encode(w, f.ToImage()) }

// SavePNG writes the frame to a PNG file.
func (f *Frame) SavePNG(path string) error {
	fp, err := os.Create(path)
	if err != nil {
		return err
	}
	defer fp.Close()
	if err := f.WritePNG(fp); err != nil {
		return err
	}
	return fp.Close()
}
