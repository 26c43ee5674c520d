// Package app implements application-layer workloads over the simulator's
// transport layer: an MQTT-style publish/subscribe broker and client
// (CONNECT/SUBSCRIBE/PUBLISH over the TCP-like stream, a topic tree with
// single-level "+" and multi-level "#" wildcards, QoS 0/1 with message-ID
// acknowledgments, retained messages) and an HTTP/1.x-style keep-alive
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

// frameReader incrementally decodes frames from stream chunks. Feed
// returns each complete frame via the callback; partial frames wait for
// more bytes. It reports false on a malformed frame (oversized body), at
// which point the caller should drop the connection.
//
// Both stream parsers consume buf by offset and slide what is left to the
// front once per call. The offset is a field, not a local, because deliver
// may write to a loopback connection and so re-enter Feed.
type frameReader struct {
	buf []byte
	off int // bytes of buf already delivered
}

func (r *frameReader) Feed(chunk []byte, deliver func(typ, flags byte, body []byte)) bool {
	r.buf = append(r.buf, chunk...)
	defer func() { r.buf, r.off = compact(r.buf, r.off), 0 }()
	for len(r.buf)-r.off >= frameHeaderLen {
		rest := r.buf[r.off:]
		n := int(binary.BigEndian.Uint16(rest[2:4]))
		if n > maxFrameBody {
			return false
		}
		if len(rest) < frameHeaderLen+n {
			return true
		}
		// The body is the handler's to keep (retained store, Message).
		body := make([]byte, n)
		copy(body, rest[frameHeaderLen:])
		r.off += frameHeaderLen + n
		deliver(rest[0], rest[1], body)
	}
	return true
}

// compact drops the first off bytes of a parser's buffer: the remainder
// slides to the front, and a drained buffer larger than streamBufKeep is
// let go.
func compact(buf []byte, off int) []byte {
	if off == len(buf) && cap(buf) > streamBufKeep {
		return nil
	}
	return buf[:copy(buf, buf[off:])]
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
