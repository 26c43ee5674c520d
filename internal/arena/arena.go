// Package arena provides slab allocation for long-lived simulation
// objects. A Slab[T] hands out *T values carved from fixed-size chunks,
// so constructing a 100k-host fleet costs one heap allocation per chunk
// of hosts instead of one per host — the garbage collector then tracks
// thousands of chunks instead of millions of individual objects.
//
// Slabs never free individual objects: a chunk stays reachable while any
// object in it is alive, and is collected as a whole once all of its
// objects die. That is the right trade for topology objects (hosts,
// interfaces) which live exactly as long as their simulation — provided a
// slab belongs to one simulation, which is why there is no shared one: the
// owner (a simulation's event loop) holds its own.
package arena

// Slab allocates values of T out of chunks of the configured size. The
// zero Slab is not usable; use NewSlab. A Slab is not safe for concurrent
// use: only the goroutine that builds or runs its simulation calls Get.
type Slab[T any] struct {
	cur   []T
	next  int
	chunk int
}

// NewSlab returns a slab carving chunks of the given size (minimum 1).
func NewSlab[T any](chunk int) *Slab[T] {
	if chunk < 1 {
		chunk = 1
	}
	return &Slab[T]{chunk: chunk}
}

// Get returns a pointer to a fresh zero value of T. The slab retains no
// reference to chunks it has filled, so fully dead chunks are collected
// normally.
func (s *Slab[T]) Get() *T {
	if s.next == len(s.cur) {
		s.cur = make([]T, s.chunk)
		s.next = 0
	}
	p := &s.cur[s.next]
	s.next++
	return p
}
