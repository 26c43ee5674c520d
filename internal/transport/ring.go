package transport

import "mosquitonet/internal/sim"

// Send-buffer sizes. A connection that never writes holds no block; a write
// fills the tail block and takes another when it is full, so the backlog a
// handoff blackout builds on a slow subnet — megabytes — is allocated once
// and never moved. A drained block goes to the connection's own free list,
// which holds at most sendRingKeep bytes' worth: steady traffic reuses its
// blocks, and an idle connection does not keep a blackout's megabytes
// reachable.
const (
	sendBlockSize = 4 << 10
	sendRingKeep  = 64 << 10
	sendFreeMax   = sendRingKeep / sendBlockSize
)

type sendBlock = *[sendBlockSize]byte

// sendRing is a connection's send buffer: the unacknowledged bytes followed
// by the unsent ones, in a queue of fixed blocks. Write copies in once, an
// ACK releases from the front in O(1), and a held byte is never copied
// again, however large the backlog grows.
type sendRing struct {
	blocks []sendBlock                      // blocks[head:] hold the bytes; blocks[:head] are nil
	head   int                              // index of the block holding the oldest held byte
	off    int                              // that byte's offset in blocks[head]
	n      int                              // bytes held
	free   sim.Records[[sendBlockSize]byte] // drained blocks, at most sendFreeMax
}

// newSendRing returns an empty send buffer.
func newSendRing() sendRing {
	return sendRing{free: sim.Records[[sendBlockSize]byte]{Max: sendFreeMax}}
}

// write appends p, taking a block whenever the tail one is full.
func (r *sendRing) write(p []byte) {
	for len(p) > 0 {
		end := r.off + r.n
		i, at := r.head+end/sendBlockSize, end%sendBlockSize
		if i == len(r.blocks) {
			r.push()
			i = len(r.blocks) - 1 // push may have slid the queue down
		}
		k := copy(r.blocks[i][at:], p)
		r.n += k
		p = p[k:]
	}
}

// push adds an empty block at the tail: from the free list if it has one.
// The index array moves forward as ACKs release blocks at its front, so when
// it is full and at least half of it is released slots, the live pointers
// slide down instead of the array growing — block pointers, never bytes.
func (r *sendRing) push() {
	if len(r.blocks) == cap(r.blocks) && r.head > 0 && r.head >= len(r.blocks)/2 {
		live := copy(r.blocks, r.blocks[r.head:])
		clear(r.blocks[live:])
		r.blocks, r.head = r.blocks[:live], 0
	}
	b := r.free.Take()
	if b == nil {
		b = new([sendBlockSize]byte)
	}
	r.blocks = append(r.blocks, b)
}

// peek lends n held bytes, skipping the oldest off, as one piece, or as two
// when they cross from one block into the next; n is at most sendBlockSize.
// The pieces are valid until the next write or discard.
func (r *sendRing) peek(off, n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	start := r.off + off
	i, at := r.head+start/sendBlockSize, start%sendBlockSize
	if end := at + n; end > sendBlockSize {
		return r.blocks[i][at:], r.blocks[i+1][:end-sendBlockSize]
	}
	return r.blocks[i][at : at+n], nil
}

// discard releases the oldest n bytes, and with them every block they
// emptied; a ring that drains gives back its partly filled tail block too.
func (r *sendRing) discard(n int) {
	r.n -= n
	r.off += n
	for r.off >= sendBlockSize {
		r.release()
		r.off -= sendBlockSize
	}
	if r.n > 0 {
		return
	}
	for r.head < len(r.blocks) {
		r.release()
	}
	r.head, r.off = 0, 0
	if cap(r.blocks) > sendFreeMax {
		r.blocks = nil // a backlog's index array, not worth keeping either
	} else {
		r.blocks = r.blocks[:0]
	}
}

// release takes the head block out of the queue: to the free list while it
// has room, to the collector otherwise.
func (r *sendRing) release() {
	r.free.Put(r.blocks[r.head])
	r.blocks[r.head] = nil
	r.head++
}
