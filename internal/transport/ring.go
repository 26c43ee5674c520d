package transport

// Ring sizes. A connection that never writes holds no array; the first
// write takes sendRingMin, a backlog doubles it, and a ring that drains to
// empty while larger than sendRingKeep lets its array go — the backlog a
// handoff blackout builds on a slow subnet reaches megabytes and must not
// stay reachable from an idle connection afterwards.
const (
	sendRingMin  = 2 << 10
	sendRingKeep = 64 << 10
)

// sendRing is a connection's send buffer: the unacknowledged bytes followed
// by the unsent ones, in a power-of-two circular array. Write copies in
// once, an ACK releases from the front in O(1), and nothing is moved in
// between except when the array doubles.
type sendRing struct {
	buf  []byte // len is zero or a power of two
	head int    // index of the oldest held byte
	n    int    // bytes held
}

// write appends p, doubling the array until it fits.
func (r *sendRing) write(p []byte) {
	if need := r.n + len(p); need > len(r.buf) {
		size := len(r.buf)
		if size == 0 {
			size = sendRingMin
		}
		for size < need {
			size *= 2
		}
		grown := make([]byte, size)
		a, b := r.peek(0, r.n)
		copy(grown[copy(grown, a):], b)
		r.buf, r.head = grown, 0
	}
	tail := (r.head + r.n) & (len(r.buf) - 1)
	if k := copy(r.buf[tail:], p); k < len(p) {
		copy(r.buf, p[k:])
	}
	r.n += len(p)
}

// peek lends n held bytes, skipping the oldest off, as one piece, or as two
// when they wrap around the end of the array. The pieces are valid until
// the next write or discard.
func (r *sendRing) peek(off, n int) (a, b []byte) {
	if n == 0 {
		return nil, nil
	}
	start := (r.head + off) & (len(r.buf) - 1)
	if end := start + n; end > len(r.buf) {
		return r.buf[start:], r.buf[:end-len(r.buf)]
	}
	return r.buf[start : start+n], nil
}

// discard releases the oldest n bytes.
func (r *sendRing) discard(n int) {
	r.n -= n
	if r.n > 0 {
		r.head = (r.head + n) & (len(r.buf) - 1)
		return
	}
	r.head = 0
	if len(r.buf) > sendRingKeep {
		r.buf = nil
	}
}
