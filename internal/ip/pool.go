package ip

import (
	"sync/atomic"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/sim"
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

// Pool is one loop's packet free lists: bare holds packets with no buffer,
// class[c] packets that keep a buffer of bufpool class c attached between
// lives, so a birth and a death are one list operation each. It is attached
// to the loop (PoolFor), so it holds the packets of one simulation only and
// dies with it, and a loop runs on one goroutine at a time, so it needs no
// lock. A pooled packet remembers its pool and Release returns it there.
// Each list keeps at most what bufpool.MaxHeld allows its class (maxBare
// for bare), the rest going to the garbage collector. A nil *Pool recycles
// nothing: its packets are live, counted and released like any other, then
// left to the collector.
type Pool struct {
	bare  []*Packet
	class [bufpool.Classes][]*Packet
}

// maxBare is the most bare packets one loop's pool keeps.
const maxBare = 1 << 12

type poolKey struct{}

// PoolFor returns loop's packet pool, attaching it on first use
// (sim.Loop.Local).
func PoolFor(loop *sim.Loop) *Pool {
	if pl, ok := loop.Local(poolKey{}).(*Pool); ok {
		return pl
	}
	pl := new(Pool)
	loop.SetLocal(poolKey{}, pl)
	return pl
}

// While counting is set, made and released count the births and deaths of
// pooled packets, whichever pool they belong to.
//
//lint:allow nosharedstate the conservation counters are written only while a test has CountPools on and read only by tests; the free lists themselves are per loop
var counts struct {
	counting       atomic.Bool
	made, released atomic.Uint64
}

// plainPackets makes every constructor return a plain packet. Only this
// package's tests set it (export_test.go), to compare a pooled run with an
// unpooled one; nothing else can.
var plainPackets bool

// acquire returns a live packet of pl owning a payload buffer of n bytes
// (none for n == 0). The buffer is recycled memory: whoever fills it writes
// every byte, checksum fields included.
func (pl *Pool) acquire(n int) *Packet {
	if plainPackets {
		p := new(Packet)
		if n > 0 {
			p.Payload = make([]byte, n)
		}
		return p
	}
	if counts.counting.Load() {
		counts.made.Add(1)
	}
	c := bufpool.Class(n)
	if n == 0 || c < 0 {
		p := pl.pop(-1)
		if p == nil {
			p = new(Packet)
		}
		p.life, p.pool = live, pl
		if n > 0 { // beyond the largest class: the garbage collector's
			p.buf = make([]byte, n)
			p.Payload = p.buf
		}
		return p
	}
	p := pl.pop(c)
	if p == nil {
		p = &Packet{buf: make([]byte, bufpool.Size(c))}
	}
	bufpool.Lent(c)
	p.life, p.pool = live, pl
	p.buf = p.buf[:n]
	p.Payload = p.buf
	return p
}

// list is pl's list of class c, or of bare packets for c < 0.
func (pl *Pool) list(c int) *[]*Packet {
	if c < 0 {
		return &pl.bare
	}
	return &pl.class[c]
}

// pop takes a packet off pl's list of class c (bare for c < 0), or returns
// nil when there is none or no pool.
func (pl *Pool) pop(c int) *Packet {
	if pl == nil {
		return nil
	}
	l := pl.list(c)
	k := len(*l) - 1
	if k < 0 {
		return nil
	}
	p := (*l)[k]
	(*l)[k] = nil
	*l = (*l)[:k]
	return p
}

// Release ends the packet's life: the zeroed struct goes back to its pool's
// list for its buffer's class, the buffer still attached, so a stale holder
// reads "proto(0) 0.0.0.0->0.0.0.0" and a nil payload, never another packet.
// Only the owner calls it, once; a second call panics. On a plain packet it
// does nothing.
//
//mnet:ownership releases
func (p *Packet) Release() {
	switch p.life {
	case plain:
		return
	case released:
		panic("ip: Release of a packet already released")
	}
	if counts.counting.Load() {
		counts.released.Add(1)
	}
	buf, pl := p.buf, p.pool
	*p = Packet{life: released}
	c, limit := -1, maxBare
	if k := bufpool.Class(cap(buf)); k >= 0 && cap(buf) == bufpool.Size(k) {
		bufpool.Returned(k)
		c, limit = k, bufpool.MaxHeld(k)
	}
	if pl == nil {
		return
	}
	if l := pl.list(c); len(*l) < limit {
		if c >= 0 {
			p.buf = buf
		}
		*l = append(*l, p)
	}
}

// CountPools turns the conservation counters of the packet pools and of
// bufpool on or off (see bufpool.Count). A test that reads ReadPoolStats
// turns them on before it builds its world; in a run nobody audits, a birth
// and a death write nothing that two shard workers share.
func CountPools(on bool) {
	counts.counting.Store(on)
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
	return PoolStats{Made: counts.made.Load(), Released: counts.released.Load()}
}
