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

// ---- the packet half: ip.Packet, stack.Host and the pipeline, in small ----

// Packet mirrors ip.Packet: a pooled struct owning its payload buffer.
type Packet struct {
	Src, Dst [4]byte
	Payload  []byte
	Trace    uint64
}

// Release returns the packet to its pool.
//
//mnet:ownership releases
func (p *Packet) Release() {}

// Clone returns a garbage-collected copy.
func (p *Packet) Clone() *Packet { return &Packet{Src: p.Src, Dst: p.Dst, Trace: p.Trace} }

// NewPacket mirrors ip.NewUDPPacket: a pooled packet the caller owns.
//
//mnet:ownership returns-pooled
func NewPacket(n int) *Packet { return &Packet{Payload: make([]byte, n)} }

// Parse mirrors ip.UnmarshalPooled: a constructor that can fail.
//
//mnet:ownership returns-pooled
func Parse(b []byte) (*Packet, error) { return &Packet{Payload: b}, nil }

// Decapsulate mirrors ip.Decapsulate: it consumes the outer packet, whose
// buffer moves under the inner one it returns.
//
//mnet:ownership takes p
//mnet:ownership returns-pooled
func Decapsulate(p *Packet) (*Packet, error) { return &Packet{Payload: p.Payload}, nil }

// Output mirrors stack.Host.Output.
//
//mnet:ownership takes pkt
func Output(pkt *Packet) error { return nil }

// Handler mirrors stack.ProtocolHandler: the contract sits on the func type
// and binds whatever is registered as one.
//
//mnet:ownership borrows pkt
type Handler func(pkt *Packet)

// Register mirrors stack.Host.RegisterHandler.
func Register(h Handler) {}

// Datagram mirrors transport.Datagram: a struct lent by value whose Payload
// is a window into the arriving packet.
type Datagram struct {
	From    [4]byte
	Payload []byte
	Iface   *Packet
}

// DatagramHandler mirrors transport.DatagramHandler.
//
//mnet:ownership borrows d
type DatagramHandler func(d Datagram)

// Bind mirrors transport.Stack.UDP.
func Bind(h DatagramHandler) {}

// Message mirrors app.Message: lent by value to a subscriber's handler.
type Message struct {
	Topic   string
	Payload []byte
}

// MessageHandler mirrors app.MessageHandler.
//
//mnet:ownership borrows m
type MessageHandler func(m Message)

// Subscribe mirrors app.Client.Subscribe.
func Subscribe(h MessageHandler) {}

// Request and Response mirror app.HTTPRequest and app.HTTPResponse: lent by
// value like a datagram, but the bytes ride in Body.
type Request struct {
	Path string
	Body []byte
}

// Response mirrors app.HTTPResponse.
type Response struct {
	Code int
	Body []byte
}

// RequestHandler mirrors app.HTTPHandler.
//
//mnet:ownership borrows req
type RequestHandler func(req Request) Response

// Serve mirrors app.NewHTTPServer.
func Serve(h RequestHandler) {}
