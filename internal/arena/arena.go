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
// chunk holds objects of one simulation only, which Get's owner argument
// ensures.
package arena

import "sync"

// Slab allocates values of T out of chunks of the configured size. The
// zero Slab is not usable; use NewSlab. A Slab is safe for concurrent use;
// in practice topology construction is single-threaded and the mutex is
// uncontended.
type Slab[T any] struct {
	mu    sync.Mutex
	cur   []T
	next  int
	chunk int
	owner any // whose objects cur holds
}

// NewSlab returns a slab carving chunks of the given size (minimum 1).
func NewSlab[T any](chunk int) *Slab[T] {
	if chunk < 1 {
		chunk = 1
	}
	return &Slab[T]{chunk: chunk}
}

// Get returns a pointer to a fresh zero value of T for owner, the thing
// the value will live and die with (a simulation's event loop). A chunk
// never mixes owners — a new owner starts a new chunk — because the
// objects of one chunk are collected together or not at all, and a value
// that reaches its whole simulation would otherwise keep a finished
// simulation alive from the next one's chunk. The slab retains no
// reference to chunks it has filled, so fully dead chunks are collected
// normally.
func (s *Slab[T]) Get(owner any) *T {
	s.mu.Lock()
	if s.next == len(s.cur) || owner != s.owner {
		s.cur = make([]T, s.chunk)
		s.next = 0
		s.owner = owner
	}
	p := &s.cur[s.next]
	s.next++
	s.mu.Unlock()
	return p
}
