package ip

import (
	"sync"
	"sync/atomic"

	"mosquitonet/internal/bufpool"
)

// Packet lifetime. A pooled packet is born in one of this package's
// constructors — UnmarshalPooled (a device receiver), NewUDPPacket,
// NewTCPPacket and NewICMPPacket (the senders), Encapsulate, Decapsulate,
// the Reassembler's completed datagram — owns its payload buffer, has
// exactly one owner at every instant, and dies in Release: after the wire
// has its bytes, after the handler it was lent to returns, after a chain
// drops it, or inside the tunnel and the reassembler when another packet
// takes its place. DESIGN §6 has the table; the bufownership analyzer checks
// the hand-overs.

// lifeState says whose a packet struct is.
type lifeState uint8

const (
	// plain: a literal some caller made. The garbage collector owns it and
	// Release is a no-op, so tests, ICMP observers and the benchmark's
	// drivers pass literals through the same paths.
	plain lifeState = iota
	// live: out of the pool, with one owner.
	live
	// released: back in the pool. Release leaves this mark on the zeroed
	// struct so a second Release is caught rather than recycling whatever
	// the struct has become since.
	released
)

// The packet pools, in one declaration: bare holds packets with no buffer,
// class[c] packets that keep a buffer of bufpool class c attached between
// lives, so a birth and a death are one pool call each. While counting is
// set, made and released count the births and deaths.
//
// Process-wide, like bufpool's: a packet made on one shard's worker is
// released on the same host, but sync.Pool is what makes the free lists safe
// when tests run loops on several goroutines, and its per-P caches retain
// less than a free list per host would (20,000 hosts each keeping their
// high-water packet or two).
//
//lint:allow nosharedstate sync.Pool and atomic counters are concurrency-safe; Release zeroes a struct before it is reused, so which struct a constructor gets never influences simulated behaviour, and the counters are written only while a test has CountPools on and read only by tests
var packets struct {
	bare           sync.Pool
	class          [bufpool.Classes]sync.Pool
	counting       atomic.Bool
	made, released atomic.Uint64
}

// plainPackets makes every constructor return a plain packet. Only this
// package's tests set it (export_test.go), to compare a pooled run with an
// unpooled one; nothing else can.
var plainPackets bool

// acquire returns a live packet owning a payload buffer of n bytes (none
// for n == 0). The buffer is recycled memory: whoever fills it writes every
// byte, checksum fields included.
func acquire(n int) *Packet {
	if plainPackets {
		p := new(Packet)
		if n > 0 {
			p.Payload = make([]byte, n)
		}
		return p
	}
	if packets.counting.Load() {
		packets.made.Add(1)
	}
	c := bufpool.Class(n)
	if n == 0 || c < 0 {
		p, _ := packets.bare.Get().(*Packet)
		if p == nil {
			p = new(Packet)
		}
		p.life = live
		if n > 0 { // beyond the largest class: the garbage collector's
			p.buf = make([]byte, n)
			p.Payload = p.buf
		}
		return p
	}
	p, _ := packets.class[c].Get().(*Packet)
	if p == nil {
		p = &Packet{buf: make([]byte, bufpool.Size(c))}
	}
	bufpool.Lent(c)
	p.life = live
	p.buf = p.buf[:n]
	p.Payload = p.buf
	return p
}

// Release ends the packet's life: the zeroed struct goes back to the pool of
// its buffer's class, the buffer still attached, so a stale holder reads
// "proto(0) 0.0.0.0->0.0.0.0" and a nil payload, never another packet. Only
// the owner calls it, once; a second call panics. On a plain packet it does
// nothing.
//
//mnet:ownership releases
func (p *Packet) Release() {
	switch p.life {
	case plain:
		return
	case released:
		panic("ip: Release of a packet already released")
	}
	if packets.counting.Load() {
		packets.released.Add(1)
	}
	buf := p.buf
	*p = Packet{life: released}
	if c := bufpool.Class(cap(buf)); c >= 0 && cap(buf) == bufpool.Size(c) {
		bufpool.Returned(c)
		p.buf = buf
		packets.class[c].Put(p)
		return
	}
	packets.bare.Put(p)
}

// CountPools turns the conservation counters of the packet pools and of
// bufpool on or off (see bufpool.Count). A test that reads ReadPoolStats
// turns them on before it builds its world; in a run nobody audits, a birth
// and a death write nothing that two shard workers share.
func CountPools(on bool) {
	packets.counting.Store(on)
	bufpool.Count(on)
}

// PoolStats counts pooled packets while CountPools is on.
type PoolStats struct {
	Made     uint64 // packets handed out by the constructors
	Released uint64 // packets returned by Release
}

// Outstanding is the number of pooled packets that have an owner right now.
func (s PoolStats) Outstanding() int64 { return int64(s.Made - s.Released) }

// ReadPoolStats reads the pool's counters. At quiesce Outstanding is the
// number of packets provably parked (fragments in reassembly, buffered
// visitors' packets are plain clones and do not count).
func ReadPoolStats() PoolStats {
	return PoolStats{Made: packets.made.Load(), Released: packets.released.Load()}
}
