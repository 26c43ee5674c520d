package arena

import "testing"

func TestSlabGetDistinct(t *testing.T) {
	s := NewSlab[int](4)
	seen := make(map[*int]bool)
	for i := 0; i < 10; i++ {
		p := s.Get(nil)
		if *p != 0 {
			t.Fatalf("Get() returned non-zero value %d", *p)
		}
		if seen[p] {
			t.Fatalf("Get() returned the same pointer twice")
		}
		seen[p] = true
		*p = i + 1
	}
	// Writing through one pointer must not disturb the others.
	for p, ok := range seen {
		if !ok || *p == 0 {
			t.Fatalf("slab value clobbered")
		}
	}
}

func TestSlabChunkClamp(t *testing.T) {
	s := NewSlab[byte](0)
	if s.chunk != 1 {
		t.Fatalf("chunk = %d, want clamp to 1", s.chunk)
	}
	a, b := s.Get(nil), s.Get(nil)
	if a == b {
		t.Fatalf("Get() returned the same pointer twice")
	}
}

func TestSlabChunkPerOwner(t *testing.T) {
	s := NewSlab[int](4)
	owner1, owner2 := new(int), new(int)
	a, b := s.Get(owner1), s.Get(owner1)
	if &s.cur[0] != a || &s.cur[1] != b {
		t.Fatalf("one owner's values are not in one chunk")
	}
	if c := s.Get(owner2); &s.cur[0] != c {
		t.Fatalf("a new owner did not start a new chunk")
	}
}
