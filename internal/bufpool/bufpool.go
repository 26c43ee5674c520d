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
// A loop's lists count the buffers they hand out and take back (Ledger). A
// buffer that crossed a trunk is taken from one loop's lists and put back
// on another's, so wire buffers balance as a sum over a simulation's loops:
// at quiesce, with no frame in flight, gets = puts.
//
// Contents of a Get buffer are NOT zeroed; callers overwrite every byte
// they marshal (and all users here do).
package bufpool

import (
	"math/bits"
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

// Lists is one loop's free lists, one per size class, each capped at
// MaxHeld. A list holds a pointer to the first byte of each buffer, not a
// slice header: a third of the memory for the list, which is what a loop
// pays as it warms up. A nil *Lists recycles and counts nothing.
type Lists struct {
	free [Classes]sim.Records[byte]
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
	for c := range l.free {
		l.free[c].Max = MaxHeld(c)
	}
	loop.SetLocal(listsKey{}, l)
	return l
}

// MaxHeld is the most class-c buffers one loop's list keeps.
func MaxHeld(c int) int { return heldBytes >> (minShift + c) }

// Held is the number of class-c buffers on the list now.
func (l *Lists) Held(c int) int { return l.free[c].Free() }

// Ledger counts l's class-sized buffers: handed out by Get, taken back by
// Put, and on the lists now. Oversize requests and foreign slices, which
// never belong to a class, are not counted.
func (l *Lists) Ledger() sim.RecordLedger {
	sum := sim.RecordLedger{Kind: "bufpool.buffer"}
	for c := range l.free {
		sum = sum.Add(l.free[c].Ledger())
	}
	return sum
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

// Get is Get on no loop's lists: a new class-sized buffer.
//
//mnet:ownership returns-pooled
func Get(n int) []byte { return (*Lists)(nil).Get(n) }

// Put is Put on no loop's lists: it leaves b to the garbage collector.
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
	if l != nil {
		if b := l.free[c].Take(); b != nil {
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
	if l == nil || c < 0 || cap(b) != Size(c) {
		return
	}
	l.free[c].Put(unsafe.SliceData(b))
}
