// Package bufowndep declares buffer-ownership contracts consumed across a
// package boundary by the bufownership fixture: the OwnershipFacts exported
// while this package is analyzed must flow through the loader to the
// importing package's pass.
package bufowndep

import "mosquitonet/internal/bufpool"

// Frame mirrors the link layer's frame: Payload is pool-backed and, for a
// receiver, borrowed for the synchronous delivery chain only.
type Frame struct {
	Payload []byte
}

// Consume takes ownership of payload and recycles it.
//
//mnet:ownership takes payload
func Consume(payload []byte) {
	bufpool.Put(payload)
}

// Peek borrows payload: callers keep ownership.
//
//mnet:ownership borrows payload
func Peek(payload []byte) int { return len(payload) }

// NewBuf returns a pooled buffer the caller owns.
//
//mnet:ownership returns-pooled
func NewBuf(n int) []byte { return bufpool.Get(n) }

// Fill writes into dst and returns it, mirroring ip's MarshalInto shape.
//
//mnet:ownership returns-alias dst
func Fill(dst []byte) []byte { return dst }

// FillErr is the tuple-returning variant of Fill.
//
//mnet:ownership returns-alias dst
func FillErr(dst []byte) ([]byte, error) { return dst, nil }

// Send borrows the frame for the duration of the call.
//
//mnet:ownership borrows f
func Send(f *Frame) {}

// Network mirrors link.Network's handoff hook: a func-typed struct field
// whose invocation transfers ownership of the frame's payload.
type Network struct {
	//mnet:ownership takes f
	Handoff func(f *Frame)
}

// Conn mirrors transport.Conn's data callback: a func-typed struct field
// whose parameter is lent to the consumer for the duration of the call.
type Conn struct {
	//mnet:ownership borrows chunk
	OnData func(chunk []byte)
}

// Write copies b, as transport.Conn.Write does.
func (c *Conn) Write(b []byte) {}
