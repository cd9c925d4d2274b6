package volio

import (
	"fmt"
	"sync"

	"repro/internal/datagen"
	"repro/internal/vol"
)

// GenStore serves time steps straight from a synthetic generator,
// standing in for the mass-storage device when no file has been
// written. The global value range is estimated once from a sample of
// steps so all nodes classify consistently, mirroring the header range
// of a FileStore.
type GenStore struct {
	G datagen.Generator

	once     sync.Once
	min, max float32
	rangeErr error
}

// NewGenStore wraps a generator as a Store.
func NewGenStore(g datagen.Generator) *GenStore { return &GenStore{G: g} }

// Dims implements Store.
func (s *GenStore) Dims() vol.Dims { return s.G.Dims() }

// Steps implements Store.
func (s *GenStore) Steps() int { return s.G.Steps() }

// Fetch implements Store.
func (s *GenStore) Fetch(t int) (*vol.Volume, error) {
	if err := s.globalRange(); err != nil {
		return nil, err
	}
	v, err := s.G.Step(t)
	if err != nil {
		return nil, err
	}
	v.Min, v.Max = s.min, s.max
	return v, nil
}

// FetchRegion implements RegionStore: the generator synthesizes the
// full step and copies the region out (a generator has no storage
// layout to exploit, but the interface lets pipelines exercise the
// parallel-I/O path against synthetic data). The copy is what makes
// the returned volume the caller's own.
func (s *GenStore) FetchRegion(t int, box vol.Box) (*vol.Volume, error) {
	v, err := s.Fetch(t)
	if err != nil {
		return nil, err
	}
	br, err := v.Extract(box, 0)
	if err != nil {
		return nil, err
	}
	sub, err := vol.New(br.Dims)
	if err != nil {
		return nil, err
	}
	for z := 0; z < br.Dims.NZ; z++ {
		for y := 0; y < br.Dims.NY; y++ {
			copy(sub.Data[sub.Index(0, y, z):], br.Row(y, z))
		}
	}
	sub.Min, sub.Max = v.Min, v.Max
	return sub, nil
}

// globalRange samples first/middle/last steps to fix a dataset-wide
// value range.
func (s *GenStore) globalRange() error {
	s.once.Do(func() {
		probes := []int{0, s.G.Steps() / 2, s.G.Steps() - 1}
		first := true
		for _, t := range probes {
			v, err := s.G.Step(t)
			if err != nil {
				s.rangeErr = fmt.Errorf("volio: probing range at step %d: %w", t, err)
				return
			}
			if first || v.Min < s.min {
				s.min = v.Min
			}
			if first || v.Max > s.max {
				s.max = v.Max
			}
			first = false
		}
	})
	return s.rangeErr
}

// Strided views a store at every k-th time step — the paper's §7.1
// preview mode ("certain time steps can be skipped during a
// previewing mode"). Step i of the view is step i*k of the base.
func Strided(s Store, k int) Store {
	if k <= 1 {
		return s
	}
	return stridedStore{base: s, k: k}
}

type stridedStore struct {
	base Store
	k    int
}

func (s stridedStore) Dims() vol.Dims { return s.base.Dims() }

func (s stridedStore) Steps() int { return (s.base.Steps() + s.k - 1) / s.k }

func (s stridedStore) Fetch(t int) (*vol.Volume, error) {
	if t < 0 || t >= s.Steps() {
		return nil, fmt.Errorf("volio: strided step %d out of range [0,%d)", t, s.Steps())
	}
	return s.base.Fetch(t * s.k)
}

// FetchRegion delegates to the base store when it supports region
// reads, preserving the parallel-I/O capability across striding.
func (s stridedStore) FetchRegion(t int, box vol.Box) (*vol.Volume, error) {
	if t < 0 || t >= s.Steps() {
		return nil, fmt.Errorf("volio: strided step %d out of range [0,%d)", t, s.Steps())
	}
	rs, ok := s.base.(RegionStore)
	if !ok {
		return nil, fmt.Errorf("volio: base store %T has no region reads", s.base)
	}
	return rs.FetchRegion(t*s.k, box)
}

// WriteDataset generates every step of g into a dataset file at path.
// It runs a range prepass over sampled steps, as a real conversion
// tool would.
func WriteDataset(path string, g datagen.Generator) error {
	gs := NewGenStore(g)
	if err := gs.globalRange(); err != nil {
		return err
	}
	w, err := Create(path, Header{Dims: g.Dims(), Steps: g.Steps(), Min: gs.min, Max: gs.max})
	if err != nil {
		return err
	}
	for t := 0; t < g.Steps(); t++ {
		v, err := g.Step(t)
		if err != nil {
			w.Close()
			return err
		}
		if err := w.WriteStep(v); err != nil {
			w.Close()
			return err
		}
	}
	return w.Close()
}
