// Package volio stores time-varying volume datasets on disk and reads
// them back step by step, the "data input" stage of the paper's
// pipeline. The format is a fixed header followed by raw little-endian
// float32 time steps, so a step can be read with one contiguous
// sequential read — exactly the access pattern of the paper's setting
// without parallel I/O.
package volio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/vol"
)

// Magic identifies the file format ("TVV1": time-varying volume v1).
const Magic = 0x54565631

// headerSize is the fixed byte size of the file header.
const headerSize = 4 + 4 + 4*3 + 4 + 8 + 8 // magic, version, dims, steps, min, max (float64)

// Header describes a stored dataset.
type Header struct {
	Dims  vol.Dims
	Steps int
	// Min and Max are the global value range across all steps, so
	// every node classifies identically without a prepass.
	Min, Max float32
}

// StepBytes returns the byte size of one stored time step.
func (h Header) StepBytes() int64 { return h.Dims.Bytes() }

// Writer streams time steps of a dataset into a file.
type Writer struct {
	f       *os.File
	bw      *bufio.Writer
	hdr     Header
	written int
}

// Create opens path for writing a dataset with the given header. The
// header's Min/Max must cover all steps' values (use a generator
// prepass or a known bound); they are written up front.
func Create(path string, hdr Header) (*Writer, error) {
	if !hdr.Dims.Valid() || hdr.Steps < 1 {
		return nil, fmt.Errorf("volio: invalid header %+v", hdr)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{f: f, bw: bufio.NewWriterSize(f, 1<<20), hdr: hdr}
	var buf [headerSize]byte
	binary.LittleEndian.PutUint32(buf[0:], Magic)
	binary.LittleEndian.PutUint32(buf[4:], 1)
	binary.LittleEndian.PutUint32(buf[8:], uint32(hdr.Dims.NX))
	binary.LittleEndian.PutUint32(buf[12:], uint32(hdr.Dims.NY))
	binary.LittleEndian.PutUint32(buf[16:], uint32(hdr.Dims.NZ))
	binary.LittleEndian.PutUint32(buf[20:], uint32(hdr.Steps))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(float64(hdr.Min)))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(float64(hdr.Max)))
	if _, err := w.bw.Write(buf[:]); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

// WriteStep appends one time step; volumes must match the header dims
// and arrive in order.
func (w *Writer) WriteStep(v *vol.Volume) error {
	if v.Dims != w.hdr.Dims {
		return fmt.Errorf("volio: step dims %v != header %v", v.Dims, w.hdr.Dims)
	}
	if w.written >= w.hdr.Steps {
		return fmt.Errorf("volio: already wrote %d steps", w.hdr.Steps)
	}
	var b [4]byte
	for _, x := range v.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(x))
		if _, err := w.bw.Write(b[:]); err != nil {
			return err
		}
	}
	w.written++
	return nil
}

// Close flushes and closes the file; it fails if fewer steps than
// promised were written.
func (w *Writer) Close() error {
	flushErr := w.bw.Flush()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if closeErr != nil {
		return closeErr
	}
	if w.written != w.hdr.Steps {
		return fmt.Errorf("volio: wrote %d of %d steps", w.written, w.hdr.Steps)
	}
	return nil
}

// Reader reads time steps of a stored dataset.
type Reader struct {
	f   *os.File
	hdr Header
}

// Open opens a dataset file for reading.
func Open(path string) (*Reader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var buf [headerSize]byte
	if _, err := io.ReadFull(f, buf[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("volio: short header: %w", err)
	}
	if binary.LittleEndian.Uint32(buf[0:]) != Magic {
		f.Close()
		return nil, errors.New("volio: bad magic")
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != 1 {
		f.Close()
		return nil, fmt.Errorf("volio: unsupported version %d", v)
	}
	hdr := Header{
		Dims: vol.Dims{
			NX: int(binary.LittleEndian.Uint32(buf[8:])),
			NY: int(binary.LittleEndian.Uint32(buf[12:])),
			NZ: int(binary.LittleEndian.Uint32(buf[16:])),
		},
		Steps: int(binary.LittleEndian.Uint32(buf[20:])),
		Min:   float32(math.Float64frombits(binary.LittleEndian.Uint64(buf[24:]))),
		Max:   float32(math.Float64frombits(binary.LittleEndian.Uint64(buf[32:]))),
	}
	if !hdr.Dims.Valid() || hdr.Steps < 1 {
		f.Close()
		return nil, fmt.Errorf("volio: corrupt header %+v", hdr)
	}
	return &Reader{f: f, hdr: hdr}, nil
}

// Header returns the dataset header.
func (r *Reader) Header() Header { return r.hdr }

// ReadStep reads time step t into a fresh volume. Safe for concurrent
// use by multiple goroutines (uses positional reads).
func (r *Reader) ReadStep(t int) (*vol.Volume, error) {
	v, err := vol.New(r.hdr.Dims)
	if err != nil {
		return nil, err
	}
	if err := r.ReadStepInto(t, v); err != nil {
		return nil, err
	}
	return v, nil
}

// readChunk is the byte size of the buffer ReadStepInto decodes a step
// through.
const readChunk = 64 << 10

// ReadStepInto reads time step t into an existing volume, avoiding
// allocation in steady-state pipelines.
func (r *Reader) ReadStepInto(t int, v *vol.Volume) error {
	if t < 0 || t >= r.hdr.Steps {
		return fmt.Errorf("volio: step %d out of range [0,%d)", t, r.hdr.Steps)
	}
	if v.Dims != r.hdr.Dims {
		return fmt.Errorf("volio: volume dims %v != dataset %v", v.Dims, r.hdr.Dims)
	}
	off := int64(headerSize) + int64(t)*r.hdr.StepBytes()
	// Decode through a small fixed chunk: a whole-step byte slab would
	// be live together with the equally large volume it fills.
	buf := make([]byte, readChunk)
	for data := v.Data; len(data) > 0; {
		n := min(len(data), readChunk/4)
		if _, err := r.f.ReadAt(buf[:n*4], off); err != nil {
			return fmt.Errorf("volio: reading step %d: %w", t, err)
		}
		for i := range data[:n] {
			data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
		}
		data = data[n:]
		off += int64(n) * 4
	}
	v.Min, v.Max = r.hdr.Min, r.hdr.Max
	return nil
}

// ReadRegion reads only the grid points of box from step t — the
// distribution pattern where each node pulls its own subvolume. It
// issues one positional read per (y,z) row, the scattered access that
// makes non-parallel I/O expensive for 3D distributions.
func (r *Reader) ReadRegion(t int, box vol.Box) (*vol.Volume, error) {
	if t < 0 || t >= r.hdr.Steps {
		return nil, fmt.Errorf("volio: step %d out of range [0,%d)", t, r.hdr.Steps)
	}
	full := vol.Box{X1: r.hdr.Dims.NX, Y1: r.hdr.Dims.NY, Z1: r.hdr.Dims.NZ}
	box = box.Intersect(full)
	if box.Empty() {
		return nil, errors.New("volio: empty region")
	}
	sub, err := vol.New(box.Dims())
	if err != nil {
		return nil, err
	}
	base := int64(headerSize) + int64(t)*r.hdr.StepBytes()
	rowBytes := int64(box.X1-box.X0) * 4
	buf := make([]byte, rowBytes)
	di := 0
	for z := box.Z0; z < box.Z1; z++ {
		for y := box.Y0; y < box.Y1; y++ {
			off := base + 4*int64(box.X0+r.hdr.Dims.NX*(y+r.hdr.Dims.NY*z))
			if _, err := r.f.ReadAt(buf, off); err != nil {
				return nil, fmt.Errorf("volio: region read: %w", err)
			}
			for i := 0; int64(i) < rowBytes/4; i++ {
				sub.Data[di] = math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:]))
				di++
			}
		}
	}
	sub.Min, sub.Max = r.hdr.Min, r.hdr.Max
	return sub, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// Store abstracts "where time steps come from" for the render
// pipeline: a file on the mass-storage device, or a generator standing
// in for one.
type Store interface {
	Dims() vol.Dims
	Steps() int
	// Fetch returns time step t with Min/Max set to the global range.
	// The volume belongs to the caller: the store keeps no reference
	// to it and never writes it again, so bricks may view it in place.
	Fetch(t int) (*vol.Volume, error)
}

// RegionStore is a Store that can read a subvolume of a time step
// directly from storage — the access pattern parallel I/O enables
// (§7.1): every node pulls its own brick concurrently instead of one
// node reading the whole step and scattering it.
type RegionStore interface {
	Store
	// FetchRegion returns the grid points of box from step t, with
	// Min/Max set to the global range. Like Fetch's, the volume
	// belongs to the caller.
	FetchRegion(t int, box vol.Box) (*vol.Volume, error)
}

// FileStore adapts a Reader to the Store interface.
type FileStore struct{ R *Reader }

// Dims implements Store.
func (s FileStore) Dims() vol.Dims { return s.R.Header().Dims }

// Steps implements Store.
func (s FileStore) Steps() int { return s.R.Header().Steps }

// Fetch implements Store.
func (s FileStore) Fetch(t int) (*vol.Volume, error) { return s.R.ReadStep(t) }

// FetchRegion implements RegionStore via positional row reads.
func (s FileStore) FetchRegion(t int, box vol.Box) (*vol.Volume, error) {
	return s.R.ReadRegion(t, box)
}
