package ip

import (
	"cmp"
	"errors"
	"slices"
)

// Fragmentation support. Tunneling makes this load-bearing rather than
// decorative: encapsulation adds 20 bytes, so a full-MTU packet entering
// the home agent's tunnel no longer fits the path to the care-of address
// and must be fragmented (and reassembled by the mobile host before
// decapsulation), exactly as with real mobile IP.

// ErrFragNeeded is returned when a packet exceeds the MTU but carries the
// don't-fragment flag.
var ErrFragNeeded = errors.New("ip: fragmentation needed but DF set")

// ErrBadMTU is returned for MTUs too small to carry any payload.
var ErrBadMTU = errors.New("ip: mtu cannot hold a header and one fragment block")

// Fragment splits p into fragments whose marshaled size fits mtu. A packet
// that already fits is returned unchanged as a single element. Offsets are
// in 8-byte blocks per the IPv4 header format; p may itself be a fragment
// (its offset and more-fragments flag are preserved into the pieces).
//
// Fragment payloads alias sub-slices of p.Payload rather than copying:
// payloads are immutable once a packet is in flight, and the fragments are
// marshaled (copied onto the wire) before p is released.
func Fragment(p *Packet, mtu int) ([]*Packet, error) {
	if p.Len() <= mtu {
		return []*Packet{p}, nil
	}
	if p.DontFrag {
		return nil, ErrFragNeeded
	}
	chunk := (mtu - HeaderLen) &^ 7 // fragment payloads are 8-byte aligned
	if chunk <= 0 {
		return nil, ErrBadMTU
	}
	var frags []*Packet
	for off := 0; off < len(p.Payload); off += chunk {
		end := off + chunk
		last := false
		if end >= len(p.Payload) {
			end = len(p.Payload)
			last = true
		}
		f := &Packet{
			Header:  p.Header,
			Payload: p.Payload[off:end:end],
		}
		f.FragOff = p.FragOff + uint16(off/8)
		f.MoreFrag = !last || p.MoreFrag
		frags = append(frags, f)
	}
	return frags, nil
}

// IsFragment reports whether p is one piece of a fragmented packet.
func (p *Packet) IsFragment() bool { return p.MoreFrag || p.FragOff != 0 }

type fragKey struct {
	src, dst Addr
	proto    Protocol
	id       uint16
}

// fragBuf is one partial datagram: its key, the pieces so far and the
// sweeps since the first piece arrived.
type fragBuf struct {
	key    fragKey
	pieces []*Packet
	age    int64
}

// ReassemblerStats counts reassembly activity.
type ReassemblerStats struct {
	Fragments   uint64 // fragments accepted
	Reassembled uint64 // packets completed
	Expired     uint64 // partial packets discarded by timeout sweeps
	DropOverlap uint64 // partial packets discarded for overlapping fragments
}

// Reassembler rebuilds original packets from fragments. It is driven by
// explicit Sweep calls (the host schedules them) rather than timers per
// packet, keeping it allocation-light.
//
// The partial datagrams are a slice in arrival order, made on the first
// fragment: a host has at most a few datagrams half-assembled, usually
// none, and a finished entry's pieces array is kept past the end of the
// slice for the next datagram.
type Reassembler struct {
	partial []fragBuf
	// MaxAge is how many sweeps a partial packet survives (default 2).
	MaxAge int64
	stats  ReassemblerStats
}

// NewReassembler creates an empty reassembler.
func NewReassembler() *Reassembler {
	return &Reassembler{MaxAge: 2}
}

// Stats returns a snapshot of the counters.
func (r *Reassembler) Stats() ReassemblerStats { return r.stats }

// Pending returns the number of incomplete packets held.
func (r *Reassembler) Pending() int { return len(r.partial) }

// Held returns the number of fragments parked in incomplete packets: the
// packets the reassembler owns right now.
func (r *Reassembler) Held() int {
	n := 0
	for i := range r.partial {
		n += len(r.partial[i].pieces)
	}
	return n
}

// find returns the index of the partial datagram with key, or -1.
func (r *Reassembler) find(key fragKey) int {
	for i := range r.partial {
		if r.partial[i].key == key {
			return i
		}
	}
	return -1
}

// open starts a partial datagram for key at the end of the slice, reusing
// the pieces array a finished one left there.
func (r *Reassembler) open(key fragKey) int {
	n := len(r.partial)
	if n < cap(r.partial) {
		r.partial = r.partial[:n+1]
	} else {
		r.partial = append(r.partial, fragBuf{})
	}
	r.partial[n].key, r.partial[n].age = key, 0
	return n
}

// discard releases partial datagram i's pieces and removes it, keeping
// the rest in arrival order and its emptied pieces array past the end.
func (r *Reassembler) discard(i int) {
	pieces := r.partial[i].pieces
	releaseAll(pieces)
	clear(pieces)
	last := len(r.partial) - 1
	copy(r.partial[i:], r.partial[i+1:])
	r.partial[last] = fragBuf{pieces: pieces[:0]}
	r.partial = r.partial[:last]
}

// Add accepts a fragment. When it completes a packet, the reassembled
// packet is returned with ok=true. Non-fragment packets are returned
// immediately.
//
// Add takes p: the reassembler owns a parked fragment until it is
// assembled, replaced by a duplicate, discarded for overlap or swept, and
// releases it then. The completed datagram is a pooled packet the caller
// owns and must Release, or hand to something that will (a non-fragment p
// comes straight back, still the caller's). A caller that drops it instead
// corrupts nothing — the garbage collector takes the struct and its buffer —
// but every completion then misses the pool and allocates a packet and a
// class-size buffer, about half again the time of a reassembly.
//
//mnet:ownership takes p
//mnet:ownership returns-pooled
func (r *Reassembler) Add(p *Packet) (*Packet, bool) {
	if !p.IsFragment() {
		return p, true
	}
	r.stats.Fragments++
	key := fragKey{src: p.Src, dst: p.Dst, proto: p.Protocol, id: p.ID}
	i := r.find(key)
	if i < 0 {
		i = r.open(key)
	}
	buf := &r.partial[i]
	// Replace duplicates (same offset) rather than stacking them. A
	// fragment that partially overlaps an existing piece at a different
	// offset can never assemble — the coverage check would see a permanent
	// hole and the buffer would sit in partial until Sweep — so the whole
	// buffer is dropped and accounted the moment the overlap appears.
	dup := -1
	for i, q := range buf.pieces {
		if q.FragOff == p.FragOff {
			dup = i
			break
		}
		if overlaps(q, p) {
			r.stats.DropOverlap++
			r.discard(i)
			p.Release()
			return nil, false
		}
	}
	if dup >= 0 {
		buf.pieces[dup].Release()
		buf.pieces[dup] = p
	} else {
		buf.pieces = append(buf.pieces, p)
	}
	full, done := assemble(buf.pieces)
	if !done {
		//lint:allow dropaccounting fragment retained in the partial buffer awaiting the rest; Sweep accounts expiry
		return nil, false
	}
	r.stats.Reassembled++
	r.discard(i)
	return full, true
}

func releaseAll(pieces []*Packet) {
	for _, p := range pieces {
		p.Release()
	}
}

// Sweep ages partial packets, discarding any that have been waiting for
// more than MaxAge sweeps, oldest first. The host calls it periodically.
func (r *Reassembler) Sweep() {
	for i := 0; i < len(r.partial); {
		if r.partial[i].age++; r.partial[i].age > r.MaxAge {
			r.stats.Expired++
			r.discard(i)
			continue
		}
		i++
	}
}

// overlaps reports whether two fragments at different offsets claim any of
// the same 8-byte blocks. Payload lengths are rounded up so a short tail
// fragment still covers its final partial block.
func overlaps(a, b *Packet) bool {
	aEnd := uint32(a.FragOff) + uint32(len(a.Payload)+7)/8
	bEnd := uint32(b.FragOff) + uint32(len(b.Payload)+7)/8
	return uint32(a.FragOff) < bEnd && uint32(b.FragOff) < aEnd
}

// assemble checks whether pieces cover a contiguous packet and builds it,
// as a pooled packet holding a copy of every piece's payload.
func assemble(pieces []*Packet) (*Packet, bool) {
	slices.SortFunc(pieces, func(a, b *Packet) int { return cmp.Compare(a.FragOff, b.FragOff) })
	if pieces[0].FragOff != 0 {
		return nil, false
	}
	expect := uint16(0)
	for i, p := range pieces {
		if p.FragOff != expect {
			return nil, false // hole
		}
		if i < len(pieces)-1 {
			if !p.MoreFrag || len(p.Payload)%8 != 0 {
				return nil, false // malformed interior fragment
			}
		}
		expect = p.FragOff + uint16(len(p.Payload)/8)
	}
	if pieces[len(pieces)-1].MoreFrag {
		return nil, false // tail missing
	}
	last := pieces[len(pieces)-1]
	full := pieces[0].pool.acquire(int(last.FragOff)*8 + len(last.Payload))
	full.Header = pieces[0].Header
	full.MoreFrag = false
	full.FragOff = 0
	for _, p := range pieces {
		copy(full.Payload[int(p.FragOff)*8:], p.Payload)
	}
	return full, true
}
