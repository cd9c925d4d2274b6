package comm

import (
	"testing"

	"repro/internal/testutil"
)

func TestTagClassesDisjoint(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewTagSpace()
	a := s.Register("a", 3)
	b := s.Register("b", 1)
	c := s.Register("c", 2)

	// Every (class, step<4, seq) combination must map to a unique tag.
	seen := map[int]string{}
	for step := 0; step < 4; step++ {
		for _, tc := range []TagClass{a, b, c} {
			for seq := 0; seq < tc.capacity; seq++ {
				tag := tc.Tag(step, seq)
				if prev, dup := seen[tag]; dup {
					t.Fatalf("tag %d of %s/%d/%d collides with %s", tag, tc.name, step, seq, prev)
				}
				seen[tag] = tc.name
			}
		}
	}
	if got, want := len(seen), 4*(3+1+2); got != want {
		t.Fatalf("expected %d distinct tags, got %d", want, got)
	}
	if s.strideLocked() != 6 {
		t.Fatalf("stride %d, want 6", s.strideLocked())
	}
}

func TestTagRegistryFreezesOnFirstUse(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewTagSpace()
	a := s.Register("a", 2)
	_ = a.Tag(0, 0) // freezes the space
	mustPanic(t, "late registration", func() { s.Register("late", 1) })
}

func TestTagRegistryRejectsMisuse(t *testing.T) {
	testutil.CheckGoroutines(t)
	s := NewTagSpace()
	a := s.Register("a", 2)
	mustPanic(t, "duplicate name", func() { s.Register("a", 1) })
	mustPanic(t, "zero capacity", func() { s.Register("b", 0) })
	mustPanic(t, "seq over capacity", func() { a.Tag(0, 2) })
	mustPanic(t, "negative seq", func() { a.Tag(0, -1) })
	mustPanic(t, "negative step", func() { a.Tag(-1, 0) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}
