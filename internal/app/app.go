// Package app implements application-layer workloads over the simulator's
// transport layer: an MQTT-style publish/subscribe broker and client
// (CONNECT/SUBSCRIBE/PUBLISH over the TCP-like stream, exact topics — no
// "+" or "#" wildcards — QoS 0/1 with message-ID acknowledgments, retained
// messages) and an HTTP/1.x-style keep-alive
// request/response client and server with pipelined requests.
//
// Everything is a deterministic state machine driven from the simulation
// loop — no goroutines, no wall clock — so experiments built on these
// workloads export byte-identically across same-seed runs. The load models
// in load.go turn the protocol machinery into measured traffic: open-loop
// (fixed-rate, arrivals independent of completions) and closed-loop
// (think-time after each completion) generators that stamp a sequence
// number on every message and account end-to-end latency, loss, and
// reordering into a stats.FlowTracker, which the loaded-handoff
// observatory then scores against handoff spans.
//
// The point, for mobility: these workloads exercise sustained TCP load
// across handoffs — the regime where zero-window stalls, retransmission
// storms, and latency spikes live — instead of the ping-like probes the
// paper (and PR 6) measured with.
package app

import (
	"encoding/binary"

	"mosquitonet/internal/transport"
)

// frame is the app layer's shared stream framing: a 4-byte header (type,
// flags, big-endian body length) followed by the body. Both the MQTT-style
// protocol and tests use it; the HTTP-style protocol is text-framed.
const frameHeaderLen = 4

// maxFrameBody bounds one frame's body; a peer announcing more is a
// protocol error and the connection is dropped. Deliberately below the
// uint16 length field's ceiling so the check is reachable.
const maxFrameBody = 32 * 1024

// streamBufKeep is the largest array a connection's drained parser or
// encode scratch holds on to: enough for the messages the load models send,
// so steady traffic does not reallocate, and small enough that one 32 KB
// message does not pin its buffer to an idle connection.
const streamBufKeep = 16 << 10

// encodeFrame appends a framed message to dst and returns the result.
func encodeFrame(dst []byte, typ, flags byte, body []byte) []byte {
	dst = append(dst, typ, flags, byte(len(body)>>8), byte(len(body)))
	return append(dst, body...)
}

// writeMsg hands conn the message built in a connection's encode scratch
// and returns the scratch for the next message: Write has copied it.
func writeMsg(conn *transport.Conn, msg []byte) ([]byte, error) {
	err := conn.Write(msg)
	if cap(msg) > streamBufKeep {
		return nil, err
	}
	return msg[:0], err
}

// lentBuf is the buffer under both stream parsers: chunks are appended, the
// parser consumes by offset, and what is left slides to the front when the
// call returns.
//
// Who owns a message body: the parser. deliver is lent a window into buf,
// capped so an append cannot reach the bytes behind it, valid until deliver
// returns; whoever keeps bytes copies them (the retained store does, an
// encoder has copied them into its connection's scratch before it returns).
//
// deliver may re-enter the parser — its write answered into this connection
// before it returns, as over a loopback connection that delivers inline — so
// the offset is a field, not a local, and only the outermost call compacts:
// an inner one sliding the buffer would move bytes under a body still lent
// further up the stack. (An inner append that outgrows the array moves buf
// to a new one and leaves the lent window on the old.)
type lentBuf struct {
	buf   []byte
	off   int // bytes of buf already delivered
	depth int // parser calls on the stack
}

// enter appends chunk; every enter is paired with a deferred leave.
func (b *lentBuf) enter(chunk []byte) {
	b.buf = append(b.buf, chunk...)
	b.depth++
}

// leave drops the delivered bytes once no call is left that lent any: the
// remainder slides to the front, and a drained buffer larger than
// streamBufKeep is let go.
func (b *lentBuf) leave() {
	if b.depth--; b.depth > 0 {
		return
	}
	if b.off == len(b.buf) && cap(b.buf) > streamBufKeep {
		b.buf = nil
	} else {
		b.buf = b.buf[:copy(b.buf, b.buf[b.off:])]
	}
	b.off = 0
}

// frameReader incrementally decodes frames from stream chunks. Feed
// returns each complete frame via the callback; partial frames wait for
// more bytes. It reports false on a malformed frame (oversized body), at
// which point the caller should drop the connection.
type frameReader struct{ lentBuf }

// frameDeliver receives one frame from a frameReader.
//
//mnet:ownership borrows body
type frameDeliver func(typ, flags byte, body []byte)

func (r *frameReader) Feed(chunk []byte, deliver frameDeliver) bool {
	r.enter(chunk)
	defer r.leave()
	for len(r.buf)-r.off >= frameHeaderLen {
		rest := r.buf[r.off:]
		n := int(binary.BigEndian.Uint16(rest[2:4]))
		if n > maxFrameBody {
			return false
		}
		end := frameHeaderLen + n
		if len(rest) < end {
			return true
		}
		r.off += end
		deliver(rest[0], rest[1], rest[frameHeaderLen:end:end])
	}
	return true
}

// appendString appends a length-prefixed string (uint16 length + bytes).
func appendString(dst []byte, s string) []byte {
	dst = append(dst, byte(len(s)>>8), byte(len(s)))
	return append(dst, s...)
}

// readString consumes a length-prefixed string from b.
func readString(b []byte) (s string, rest []byte, ok bool) {
	if len(b) < 2 {
		return "", nil, false
	}
	n := int(binary.BigEndian.Uint16(b))
	if len(b) < 2+n {
		return "", nil, false
	}
	return string(b[2 : 2+n]), b[2+n:], true
}
