package comm

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Tag registry.
//
// Sub-communicators share the world mailboxes, so every subsystem that
// exchanges messages over a world — the pipeline's work distribution,
// binary-swap stages, tile fragments — must draw its tags from
// disjoint ranges. Historically each caller did its own arithmetic
// (`step*64 + kind*32 + offset`), which silently collides the moment a
// subsystem grows past its hand-counted allotment. The registry
// centralizes the allocation: a package registers a named TagClass
// with the capacity it needs (the number of distinct sequence numbers
// it uses per step), and the registry lays all classes out in one
// per-step stride so tags from different classes — and from different
// steps — can never overlap.

// TagSpace allocates tag ranges for a set of named classes. The zero
// value is not usable; use NewTagSpace, or the package-default space
// via RegisterTagClass. A space freezes on first Tag computation:
// registering after that panics, because a new class would change the
// per-step stride and silently invalidate every tag already handed
// out.
type TagSpace struct {
	mu      sync.Mutex
	frozen  atomic.Bool
	stride  int
	classes map[string]int // name -> offset within the per-step block
}

// NewTagSpace returns an empty tag space (used by tests; production
// code shares the package-default space).
func NewTagSpace() *TagSpace {
	return &TagSpace{classes: map[string]int{}}
}

// Register allocates a class of capacity consecutive tags per step.
// It panics on a duplicate name, a non-positive capacity, or a space
// that already froze (a Tag was computed) — all three are programming
// errors, caught at package init in normal use.
func (s *TagSpace) Register(name string, capacity int) TagClass {
	if capacity < 1 {
		panic(fmt.Sprintf("comm: tag class %q capacity %d < 1", name, capacity))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.frozen.Load() {
		panic(fmt.Sprintf("comm: tag class %q registered after tags were computed — register all classes at init", name))
	}
	if s.classes == nil {
		s.classes = map[string]int{}
	}
	if _, dup := s.classes[name]; dup {
		panic(fmt.Sprintf("comm: duplicate tag class %q", name))
	}
	offset := s.stride
	s.classes[name] = offset
	s.stride += capacity
	return TagClass{space: s, name: name, offset: offset, capacity: capacity}
}

// TagClass is one registered consumer's slice of the tag space.
type TagClass struct {
	space    *TagSpace
	name     string
	offset   int
	capacity int
}

// Tag returns the wire tag for (step, seq). step namespaces pipeline
// steps (every step gets a fresh block, so concurrent groups working
// on different steps never cross-talk); seq indexes within the class
// (e.g. the binary-swap stage number). The first call freezes the
// space. Panics when seq is outside the registered capacity or step
// is negative — the exact overflow the old `+16` arithmetic let slide.
func (tc TagClass) Tag(step, seq int) int {
	if seq < 0 || seq >= tc.capacity {
		panic(fmt.Sprintf("comm: tag class %q seq %d outside capacity %d", tc.name, seq, tc.capacity))
	}
	if step < 0 {
		panic(fmt.Sprintf("comm: tag class %q negative step %d", tc.name, step))
	}
	tc.space.frozen.Store(true)
	return step*tc.space.strideLocked() + tc.offset + seq
}

// strideLocked reads the stride; after freeze it is immutable, and
// freeze-before-read is ordered by the atomic in Tag, but take the
// lock anyway so the race detector sees a clean happens-before with a
// (buggy) late Register.
func (s *TagSpace) strideLocked() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stride
}

// defaultTagSpace is the process-wide space production code registers
// into (at package init, so the layout is fixed before any world
// exists).
var defaultTagSpace = NewTagSpace()

// RegisterTagClass registers a class in the package-default tag space.
// Call from package init (var initializer); see TagSpace.Register for
// the panics.
func RegisterTagClass(name string, capacity int) TagClass {
	return defaultTagSpace.Register(name, capacity)
}
