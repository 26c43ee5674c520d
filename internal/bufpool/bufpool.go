// Package bufpool provides size-classed recycling of the transient byte
// buffers the packet path burns through: the wire image a frame carries
// from the sender's marshal to the flight's landing, and ARP messages. Its
// size classes are also those of the buffers pooled packets keep (package
// ip).
//
// Recycling is per simulation loop: each sim.Loop carries its own free
// lists (For), one per size class, attached to the loop so they live and
// die with it. A loop runs on one goroutine at a time, so its lists need no
// lock, and a loop's high-water mark of buffers in use is what its lists
// keep. A buffer that crossed a cross-shard trunk is put back on the lists
// of the loop it landed on. Each list is capped (MaxHeld), so a flow that
// only ever lands on one loop cannot grow that loop's list without bound: a
// Put beyond the cap leaves the buffer to the garbage collector. Code with
// no loop uses the package functions Get and Put, which allocate and
// discard.
//
// Ownership rules (documented at each call site, summarized here):
//
//   - Get(n) returns a buffer of len n; the caller owns it until it either
//     Puts it back or hands it to an API that documents taking ownership.
//   - Put only buffers obtained from Get, and only once; the contents may
//     be reused immediately by anyone.
//   - Never Put a buffer that protocol state may retain. A wire buffer is
//     safe to recycle once the synchronous delivery chain returns: the
//     receiver's ip.UnmarshalPooled copies the payload into the buffer of a
//     packet of its own. link.Device.Send takes the wire buffer, and the
//     flight that carries it puts it back when it lands.
//
// A class counts its Gets and Puts while Count is on (ReadStats): at
// quiesce, with no frame in flight and no packet parked, the two are equal.
// Count is off unless a test that checks this turns it on, so shard workers
// write no memory they share on the data path.
//
// Contents of a Get buffer are NOT zeroed; callers overwrite every byte
// they marshal (and all users here do).
package bufpool

import (
	"math/bits"
	"sync/atomic"
	"unsafe"

	"mosquitonet/internal/sim"
)

// Size classes are powers of two from 64 B to 64 KiB: small control
// messages (ARP is 28 B), full Ethernet frames (1500 B + headers), and
// worst-case reassembled IP packets (65535 B).
const (
	minShift = 6
	maxShift = 16
	// Classes is the number of size classes.
	Classes = maxShift - minShift + 1
)

// heldBytes is what one class's list on one loop keeps at most: 16,384
// buffers of 64 B, 512 of 2 KiB, 16 of 64 KiB.
const heldBytes = 1 << 20

// classCount is one size class's conservation counters: while counting is
// set, how many buffers it has handed out and taken back. With the flag
// clear nothing here is written and the line stays shared between workers.
type classCount struct {
	counting   atomic.Bool
	gets, puts atomic.Uint64
}

//lint:allow nosharedstate the conservation counters are written only while a test has Count on and read only by tests; the free lists themselves are per loop
var counts [Classes]classCount

// Lists is one loop's free lists, one per size class. A list holds a
// pointer to the first byte of each buffer, not a slice header: a third of
// the memory for the list, which is what a loop pays as it warms up. The
// zero value is ready to use; a nil *Lists recycles nothing.
type Lists struct {
	free [Classes][]*byte
}

type listsKey struct{}

// For returns loop's free lists, attaching them on first use
// (sim.Loop.Local), so they hold the buffers of one simulation only and die
// with it.
func For(loop *sim.Loop) *Lists {
	if l, ok := loop.Local(listsKey{}).(*Lists); ok {
		return l
	}
	l := new(Lists)
	loop.SetLocal(listsKey{}, l)
	return l
}

// MaxHeld is the most class-c buffers one loop's list keeps.
func MaxHeld(c int) int { return heldBytes >> (minShift + c) }

// Held is the number of class-c buffers on the list now.
func (l *Lists) Held(c int) int { return len(l.free[c]) }

// Count turns the Get and Put counters on or off. A test that checks
// conservation turns them on before it builds its world and off when it is
// done; nothing else does. They are not simply always on because that is an
// atomic add on every Get and Put to a cache line every shard worker
// writes, and what a line bouncing between cores costs a run depends on
// which workers happen to run at the same instant.
func Count(on bool) {
	for i := range counts {
		counts[i].counting.Store(on)
	}
}

// Stats counts class-sized buffers while Count is on. Oversize requests and
// foreign slices, which never belong to a class, are not counted.
type Stats struct {
	Gets uint64 // buffers handed out by Get
	Puts uint64 // buffers taken back by Put
}

// Outstanding is the number of class-sized buffers someone owns right now.
func (s Stats) Outstanding() int64 { return int64(s.Gets - s.Puts) }

// ReadStats sums the classes' counters.
func ReadStats() Stats {
	var s Stats
	for i := range counts {
		s.Gets += counts[i].gets.Load()
		s.Puts += counts[i].puts.Load()
	}
	return s
}

// Class returns the smallest size class holding n bytes, or -1 if n
// exceeds the largest class.
func Class(n int) int {
	switch {
	case n <= 1<<minShift:
		return 0
	case n > 1<<maxShift:
		return -1
	}
	return bits.Len(uint(n-1)) - minShift
}

// Size is the capacity of class c's buffers.
func Size(c int) int { return 1 << (minShift + c) }

// Lent counts a class-c buffer handed out and Returned one taken back. Get
// and Put count theirs with them, and so does package ip for a pooled
// packet's buffer, which rides its packet through the packet's own free
// list rather than through these: Outstanding counts every class-sized
// buffer someone owns.
func Lent(c int) {
	if counts[c].counting.Load() {
		counts[c].gets.Add(1)
	}
}

// Returned is Lent's other half.
func Returned(c int) {
	if counts[c].counting.Load() {
		counts[c].puts.Add(1)
	}
}

// Get is Get on no loop's lists: a new class-sized buffer.
//
//mnet:ownership returns-pooled
func Get(n int) []byte { return (*Lists)(nil).Get(n) }

// Put is Put on no loop's lists: it counts b and leaves it to the garbage
// collector.
func Put(b []byte) { (*Lists)(nil).Put(b) }

// Get returns a buffer of length n and the capacity of n's class, from the
// list when it holds one. Requests larger than the largest size class fall
// back to a plain allocation (which Put will decline to recycle).
//
//mnet:ownership returns-pooled
func (l *Lists) Get(n int) []byte {
	c := Class(n)
	if c < 0 {
		return make([]byte, n)
	}
	Lent(c)
	if l != nil {
		if k := len(l.free[c]) - 1; k >= 0 {
			b := l.free[c][k]
			l.free[c][k] = nil
			l.free[c] = l.free[c][:k]
			return unsafe.Slice(b, Size(c))[:n]
		}
	}
	return make([]byte, n, Size(c))
}

// Put recycles a buffer obtained from Get onto the list, unless the list is
// full. Buffers whose capacity is not exactly a size class (oversize
// fallbacks, foreign slices) are dropped for the garbage collector instead.
// Put(nil) is a no-op.
func (l *Lists) Put(b []byte) {
	c := Class(cap(b))
	if c < 0 || cap(b) != Size(c) {
		return
	}
	Returned(c)
	if l != nil && len(l.free[c]) < MaxHeld(c) {
		l.free[c] = append(l.free[c], unsafe.SliceData(b))
	}
}
