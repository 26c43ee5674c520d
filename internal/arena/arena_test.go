package arena

import "testing"

func TestSlabGetDistinct(t *testing.T) {
	s := NewSlab[int](4)
	seen := make(map[*int]bool)
	for i := 0; i < 10; i++ {
		p := s.Get()
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
	a, b := s.Get(), s.Get()
	if a == b {
		t.Fatalf("Get() returned the same pointer twice")
	}
}
