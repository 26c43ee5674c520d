package ip

import (
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
// nothing: its packets are live and released like any other, then left to
// the collector.
//
// The lists count the packets they hand out and take back, and Ledger sums
// them. A packet's buffer rides the packet and is counted with it.
type Pool struct {
	bare  sim.Records[Packet]
	class [bufpool.Classes]sim.Records[Packet]
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
	pl := &Pool{bare: sim.Records[Packet]{Max: maxBare}}
	for c := range pl.class {
		pl.class[c].Max = bufpool.MaxHeld(c)
	}
	loop.SetLocal(poolKey{}, pl)
	return pl
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
	c := bufpool.Class(n)
	if n == 0 || c < 0 {
		var p *Packet
		if pl != nil {
			p = pl.bare.Take()
		}
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
	var p *Packet
	if pl != nil {
		p = pl.class[c].Take()
	}
	if p == nil {
		p = &Packet{buf: make([]byte, bufpool.Size(c))}
	}
	p.life, p.pool = live, pl
	p.buf = p.buf[:n]
	p.Payload = p.buf
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
	buf, pl := p.buf, p.pool
	*p = Packet{life: released}
	if pl == nil {
		return
	}
	if c := bufpool.Class(cap(buf)); c >= 0 && cap(buf) == bufpool.Size(c) {
		p.buf = buf
		pl.class[c].Put(p)
	} else {
		pl.bare.Put(p)
	}
}

// Ledger counts pl's packets: handed out by the constructors, taken back by
// Release, and on the lists now. At quiesce the packets in use are those
// provably parked (fragments in reassembly; a buffered visitor's packets
// are plain clones and do not count).
func (pl *Pool) Ledger() sim.RecordLedger {
	sum := sim.RecordLedger{Kind: "ip.Packet"}.Add(pl.bare.Ledger())
	for i := range pl.class {
		sum = sum.Add(pl.class[i].Ledger())
	}
	return sum
}
