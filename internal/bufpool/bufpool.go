// Package bufpool provides size-classed recycling of the transient byte
// buffers the packet path burns through: the wire image a frame carries
// from the sender's marshal to the flight's landing, and ARP messages. Its
// size classes are also those of the buffers pooled packets keep (package
// ip). The simulator is single-threaded per loop, but pools are shared
// process-wide (tests run loops on several goroutines), so the
// implementation rides on sync.Pool.
//
// Buffers are pooled as pointers to fixed-size arrays, so a steady-state
// Get/Put cycle performs no allocation at all — no interface boxing, no
// slice-header heap traffic.
//
// Ownership rules (documented at each call site, summarized here):
//
//   - Get(n) returns a zero-prefixed-length buffer of len n; the caller
//     owns it until it either Puts it back or hands it to an API that
//     documents taking ownership.
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
	"sync"
	"sync/atomic"
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

// classPool is one size class: its pool and, while counting is set, how
// many buffers it has handed out and taken back. The flag sits beside the
// pool so that reading it touches the line Get and Put load anyway; with it
// clear nothing here is written and the line stays shared between workers.
type classPool struct {
	sync.Pool
	counting   atomic.Bool
	gets, puts atomic.Uint64
}

//lint:allow nosharedstate sync.Pool is concurrency-safe by contract and buffer reuse never influences simulated behaviour; cross-shard frame payloads are explicitly allowed to Get on one shard and Put on another; the atomic counters are written only while a test has Count on, and read only by tests
var pools = [Classes]classPool{
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 0)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 1)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 2)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 3)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 4)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 5)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 6)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 7)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 8)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 9)]byte) }}},
	{Pool: sync.Pool{New: func() any { return new([1 << (minShift + 10)]byte) }}},
}

// Count turns the Get and Put counters on or off. A test that checks
// conservation turns them on before it builds its world and off when it is
// done; nothing else does. They are not simply always on because that is an
// atomic add on every Get and Put to a cache line every shard worker
// writes, and what a line bouncing between cores costs a run depends on
// which workers happen to run at the same instant.
func Count(on bool) {
	for i := range pools {
		pools[i].counting.Store(on)
	}
}

// Stats counts pooled buffers while Count is on. Oversize requests and
// foreign slices, which never touch a pool, are not counted.
type Stats struct {
	Gets uint64 // buffers handed out by Get
	Puts uint64 // buffers taken back by Put
}

// Outstanding is the number of pooled buffers someone owns right now.
func (s Stats) Outstanding() int64 { return int64(s.Gets - s.Puts) }

// ReadStats sums the classes' counters.
func ReadStats() Stats {
	var s Stats
	for i := range pools {
		s.Gets += pools[i].gets.Load()
		s.Puts += pools[i].puts.Load()
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

// Lent counts a class-c buffer handed out without a Get, and Returned one
// taken back without a Put: a pooled packet's buffer, which rides its packet
// through the packet's own pool (package ip) rather than through this one.
// With them Outstanding counts every pooled buffer someone owns.
func Lent(c int) {
	if pools[c].counting.Load() {
		pools[c].gets.Add(1)
	}
}

// Returned is Lent's other half.
func Returned(c int) {
	if pools[c].counting.Load() {
		pools[c].puts.Add(1)
	}
}

// Get returns a buffer of length n backed by a pooled array. Requests
// larger than the largest size class fall back to a plain allocation
// (which Put will decline to recycle).
//
//mnet:ownership returns-pooled
func Get(n int) []byte {
	c := Class(n)
	if c < 0 {
		return make([]byte, n)
	}
	if pools[c].counting.Load() {
		pools[c].gets.Add(1)
	}
	switch b := pools[c].Get().(type) {
	case *[1 << (minShift + 0)]byte:
		return b[:n]
	case *[1 << (minShift + 1)]byte:
		return b[:n]
	case *[1 << (minShift + 2)]byte:
		return b[:n]
	case *[1 << (minShift + 3)]byte:
		return b[:n]
	case *[1 << (minShift + 4)]byte:
		return b[:n]
	case *[1 << (minShift + 5)]byte:
		return b[:n]
	case *[1 << (minShift + 6)]byte:
		return b[:n]
	case *[1 << (minShift + 7)]byte:
		return b[:n]
	case *[1 << (minShift + 8)]byte:
		return b[:n]
	case *[1 << (minShift + 9)]byte:
		return b[:n]
	default:
		return b.(*[1 << (minShift + 10)]byte)[:n]
	}
}

// Put recycles a buffer obtained from Get. Buffers whose capacity is not
// exactly a size class (oversize fallbacks, foreign slices) are dropped for
// the garbage collector instead. Put(nil) is a no-op.
func Put(b []byte) {
	var c int
	var x any
	switch cap(b) {
	case 1 << (minShift + 0):
		c, x = 0, (*[1 << (minShift + 0)]byte)(b[:cap(b)])
	case 1 << (minShift + 1):
		c, x = 1, (*[1 << (minShift + 1)]byte)(b[:cap(b)])
	case 1 << (minShift + 2):
		c, x = 2, (*[1 << (minShift + 2)]byte)(b[:cap(b)])
	case 1 << (minShift + 3):
		c, x = 3, (*[1 << (minShift + 3)]byte)(b[:cap(b)])
	case 1 << (minShift + 4):
		c, x = 4, (*[1 << (minShift + 4)]byte)(b[:cap(b)])
	case 1 << (minShift + 5):
		c, x = 5, (*[1 << (minShift + 5)]byte)(b[:cap(b)])
	case 1 << (minShift + 6):
		c, x = 6, (*[1 << (minShift + 6)]byte)(b[:cap(b)])
	case 1 << (minShift + 7):
		c, x = 7, (*[1 << (minShift + 7)]byte)(b[:cap(b)])
	case 1 << (minShift + 8):
		c, x = 8, (*[1 << (minShift + 8)]byte)(b[:cap(b)])
	case 1 << (minShift + 9):
		c, x = 9, (*[1 << (minShift + 9)]byte)(b[:cap(b)])
	case 1 << (minShift + 10):
		c, x = 10, (*[1 << (minShift + 10)]byte)(b[:cap(b)])
	default:
		return
	}
	if pools[c].counting.Load() {
		pools[c].puts.Add(1)
	}
	pools[c].Put(x)
}
