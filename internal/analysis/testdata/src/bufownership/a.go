// Package fixture exercises the bufownership analyzer: every pooled buffer
// is recycled or ownership-transferred exactly once on every path, and
// borrowed frame payloads are never retained. Each violation class has a
// flagged variant and an allowed (suppressed) variant.
package fixture

import (
	"errors"

	dep "fixture/internal/analysis/testdata/src/bufowndep"
	"mosquitonet/internal/bufpool"
)

func work(b []byte) {}

// ---- use-after-recycle ----

func useAfterRecycle(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	work(buf) // want "use of pooled buffer buf after recycle"
}

func allowedUseAfterRecycle(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	work(buf) //lint:allow bufownership fixture exercises the escape hatch
}

func useOnLivePathOnly(n int, cold bool) {
	buf := bufpool.Get(n)
	if cold {
		work(buf)
		bufpool.Put(buf)
		return
	}
	bufpool.Put(buf)
}

// ---- double recycle ----

func doubleRecycle(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	bufpool.Put(buf) // want "double recycle"
}

func allowedDoubleRecycle(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	bufpool.Put(buf) //lint:allow bufownership fixture exercises the escape hatch
}

func recycleOncePerPath(n int, early bool) {
	buf := bufpool.Get(n)
	if early {
		bufpool.Put(buf)
		return
	}
	work(buf)
	bufpool.Put(buf)
}

// ---- leak at a terminal ----

func leakOnError(n int, fail bool) error {
	buf := bufpool.Get(n) // want "may leak"
	if fail {
		return errors.New("send failed")
	}
	bufpool.Put(buf)
	return nil
}

func allowedLeak(n int) {
	buf := bufpool.Get(n) //lint:allow bufownership fixture keeps the buffer on purpose
	work(buf)
}

func deferRecycle(n int) {
	buf := bufpool.Get(n)
	defer bufpool.Put(buf)
	work(buf)
}

func recyclePerIteration(rounds int) {
	for i := 0; i < rounds; i++ {
		buf := bufpool.Get(64)
		work(buf)
		bufpool.Put(buf)
	}
}

// marshalAndSend is the stack's sendOne pattern: marshal into an owned
// buffer through an aliasing callee, recycle on the error path, transfer
// on success.
func marshalAndSend(n int) error {
	buf := bufpool.Get(n)
	raw, err := dep.FillErr(buf)
	if err != nil {
		bufpool.Put(buf)
		return err
	}
	dep.Consume(raw)
	return nil
}

// ---- cross-package ownership transfer (facts) ----

func useAfterTransfer(n int) {
	buf := bufpool.Get(n)
	dep.Consume(buf)
	work(buf) // want "after its ownership was transferred"
}

func transferTwice(n int) {
	buf := bufpool.Get(n)
	dep.Consume(buf)
	dep.Consume(buf) // want "ownership transferred twice"
}

func recycleAfterTransfer(n int) {
	buf := bufpool.Get(n)
	dep.Consume(buf)
	bufpool.Put(buf) // want "ownership was already transferred"
}

func leakFromDep(n int) {
	buf := dep.NewBuf(n) // want "may leak"
	work(buf)
}

func recycleFromDep(n int) {
	buf := dep.NewBuf(n)
	bufpool.Put(buf)
}

func aliasRecycled(n int) {
	buf := bufpool.Get(n)
	out := dep.Fill(buf)
	bufpool.Put(out)
}

// viaHandoff transfers through a func-typed struct field's contract, the
// link.Network handoff shape.
func viaHandoff(n *dep.Network, size int) {
	payload := bufpool.Get(size)
	n.Handoff(&dep.Frame{Payload: payload})
}

// sendThenRecycle: a borrowing callee does not take the buffer, so the
// caller still recycles.
func sendThenRecycle(size int) {
	payload := bufpool.Get(size)
	dep.Send(&dep.Frame{Payload: payload})
	bufpool.Put(payload)
}

func handAndTouch(n int, enqueue func(fn func())) {
	buf := bufpool.Get(n)
	enqueue(func() { bufpool.Put(buf) })
	work(buf) // want "after its ownership was transferred"
}

// ---- retained borrowed frame payloads ----

type sink struct {
	stash []byte
	all   [][]byte
	name  string
	n     int
}

func (s *sink) retainPayload(f *dep.Frame) {
	s.stash = f.Payload // want "retained past synchronous delivery"
}

func (s *sink) allowedRetain(f *dep.Frame) {
	s.stash = f.Payload //lint:allow bufownership fixture retains deliberately
}

func recycleBorrowed(f *dep.Frame) {
	bufpool.Put(f.Payload) // want "bufpool.Put of borrowed frame payload"
}

func transferBorrowed(f *dep.Frame) {
	dep.Consume(f.Payload) // want "ownership of borrowed frame payload"
}

func captureBorrowed(f *dep.Frame, later func(fn func())) {
	later(func() { work(f.Payload) }) // want "captured by a closure"
}

// borrowOK is the sanctioned pattern: read the payload, copy what must
// outlive delivery into an owned buffer, keep only the copy.
func borrowOK(s *sink, f *dep.Frame) {
	n := dep.Peek(f.Payload)
	c := bufpool.Get(n)
	copy(c, f.Payload)
	s.stash = c
}

// ---- parameters lent under a borrows contract: the OnData shape ----

var lastChunk []byte

// lentChunk assigns func literals to a borrows-annotated func field: inside
// each, the matching parameter is borrowed for the call.
func lentChunk(c *dep.Conn, s *sink, later func(fn func())) {
	c.OnData = func(chunk []byte) {
		s.stash = chunk // want "borrowed parameter chunk retained past synchronous delivery"
	}
	c.OnData = func(chunk []byte) {
		lastChunk = chunk[2:] // want "retained past synchronous delivery"
	}
	c.OnData = func(chunk []byte) {
		s.all = append(s.all, chunk) // want "retained past synchronous delivery"
	}
	c.OnData = func(chunk []byte) {
		later(func() { work(chunk) }) // want "borrowed parameter chunk captured by a closure"
	}
	c.OnData = func(chunk []byte) {
		bufpool.Put(chunk) // want "bufpool.Put of borrowed parameter chunk"
	}
	c.OnData = func(chunk []byte) {
		s.stash = chunk //lint:allow bufownership fixture retains deliberately
	}
	// The sanctioned consumers: copy out, write on, read.
	c.OnData = func(chunk []byte) {
		s.stash = append(s.stash, chunk...)
		s.name = string(chunk)
		s.n += len(chunk)
		c.Write(chunk)
		work(chunk)
		local := chunk[1:]
		work(local)
	}
	// A parameter the contract does not name is not tracked.
	plain := func(chunk []byte) { s.stash = chunk }
	plain(nil)
}

// lentInLiteral: the contract also reaches a literal set by field key.
func lentInLiteral(s *sink) *dep.Conn {
	return &dep.Conn{OnData: func(chunk []byte) {
		s.stash = chunk // want "retained past synchronous delivery"
	}}
}

// keepBorrowed: a declaration's own borrows contract binds its body.
//
//mnet:ownership borrows b
func keepBorrowed(s *sink, b []byte) { // want fact:"keepBorrowed: ownership\(borrows=\[1\]\)"
	s.stash = b // want "borrowed parameter b retained past synchronous delivery"
}

// ---- takes-frame entry: a DeliverLocal-shaped owner ----

//mnet:ownership takes f
func deliverLocal(f *dep.Frame) { // want fact:"deliverLocal: ownership\(takes=\[0\]\)"
	work(f.Payload)
	bufpool.Put(f.Payload)
}

//mnet:ownership takes f
func deliverLeak(f *dep.Frame) { // want "may leak"
	work(f.Payload)
}

// sendOn is link.Device.Send's shape: a frame handed on whole to a taking
// callee takes its payload along, on one path, and is recycled on the other.
//
//mnet:ownership takes f
func sendOn(n *dep.Network, f *dep.Frame, down bool) { // want fact:"sendOn: ownership\(takes=\[1\]\)"
	if down {
		bufpool.Put(f.Payload)
		return
	}
	n.Handoff(f)
}

//mnet:ownership takes f
func sendOnTwice(n *dep.Network, f *dep.Frame) {
	n.Handoff(f)
	bufpool.Put(f.Payload) // want "ownership was already transferred"
}

// forwardBorrowed: a receiver cannot hand the frame it was lent to a
// taking callee.
func forwardBorrowed(n *dep.Network, f *dep.Frame) {
	n.Handoff(f) // want "ownership of borrowed frame payload"
}

// ---- malformed annotations are surfaced, not silently dropped ----

//mnet:ownership takes nosuch
func badParam(buf []byte) { // want "no parameter named nosuch"
	work(buf)
}

//mnet:ownership retains buf
func badVerb(buf []byte) { // want "unknown verb retains"
	work(buf)
}

// ---- packets: one owner at a time ----

func see(p *dep.Packet) {}

type keeper struct {
	last *dep.Packet
	src  [4]byte
	buf  []byte
}

func readAfterOutput() {
	pkt := dep.NewPacket(8)
	dep.Output(pkt)
	see(pkt) // want "after its ownership was transferred"
}

func traceAfterOutput() uint64 {
	pkt := dep.NewPacket(8)
	if err := dep.Output(pkt); err != nil {
		return pkt.Trace // want "after its ownership was transferred"
	}
	return 0
}

func doubleRelease() {
	pkt := dep.NewPacket(8)
	pkt.Release()
	pkt.Release() // want "double recycle: pkt.Release"
}

func readAfterRelease() [4]byte {
	pkt := dep.NewPacket(8)
	pkt.Release()
	return pkt.Src // want "use of pooled buffer pkt after recycle"
}

func leakedPacket() {
	pkt := dep.NewPacket(8) // want "may leak"
	see(pkt)
}

// sendOrRelease is a sender's shape: every path hands the packet on or
// releases it, and what it needs of the packet it reads first.
func sendOrRelease(ok bool) uint64 {
	pkt := dep.NewPacket(8)
	trace := pkt.Trace
	if !ok {
		pkt.Release()
		return trace
	}
	dep.Output(pkt)
	return trace
}

// parseThenOutput: a constructor that can fail hands back nil with its
// error, so its result is not leak-checked on the error path.
func parseThenOutput(b []byte) error {
	pkt, err := dep.Parse(b)
	if err != nil {
		return err
	}
	return dep.Output(pkt)
}

// ---- Decapsulate's buffer move ----

func readOuterAfterDecap() {
	outer := dep.NewPacket(8)
	inner, err := dep.Decapsulate(outer)
	if err != nil {
		return
	}
	see(outer) // want "after its ownership was transferred"
	dep.Output(inner)
}

func decapThenInput() {
	outer := dep.NewPacket(8)
	trace := outer.Trace
	inner, err := dep.Decapsulate(outer)
	if err != nil {
		return
	}
	inner.Trace = trace
	dep.Output(inner)
}

// ---- handlers: lent means lent ----

func (k *keeper) handle(pkt *dep.Packet) {
	k.last = pkt // want "borrowed parameter pkt retained past synchronous delivery"
}

func (k *keeper) handleOK(pkt *dep.Packet) {
	k.last = pkt.Clone()
	k.src = pkt.Src
	see(pkt)
}

func registerHandlers(k *keeper, later func(fn func())) {
	dep.Register(k.handle)
	dep.Register(k.handleOK)
	dep.Register(func(pkt *dep.Packet) {
		k.last = pkt // want "borrowed parameter pkt retained past synchronous delivery"
	})
	dep.Register(func(pkt *dep.Packet) {
		later(func() { see(pkt) }) // want "borrowed parameter pkt captured by a closure"
	})
	dep.Register(func(pkt *dep.Packet) {
		pkt.Release() // want "pkt.Release of borrowed parameter pkt"
	})
	dep.Register(func(pkt *dep.Packet) {
		dep.Output(pkt) // want "ownership of borrowed parameter pkt passed to dep.Output"
	})
	dep.Register(func(pkt *dep.Packet) {
		reply := dep.NewPacket(len(pkt.Payload))
		reply.Dst = pkt.Src
		dep.Output(reply)
	})
	var h dep.Handler = func(pkt *dep.Packet) {
		k.last = pkt // want "retained past synchronous delivery"
	}
	h(nil)
}

// ---- datagrams: a borrowed struct lends its Payload, nothing else ----

func (k *keeper) datagram(d dep.Datagram) {
	k.buf = d.Payload // want "payload of frame d.+retained past synchronous delivery"
}

func bindDatagrams(k *keeper, later func(fn func())) {
	dep.Bind(k.datagram)
	dep.Bind(func(d dep.Datagram) {
		k.src, k.last = d.From, d.Iface // values copied out of the datagram
		k.buf = append(k.buf[:0], d.Payload...)
		later(func() { see(d.Iface) })
	})
	dep.Bind(func(d dep.Datagram) {
		later(func() { work(d.Payload) }) // want "captured by a closure"
	})
}

// ---- messages: a handler is lent m.Payload / req.Body for the call ----

func (k *keeper) message(m dep.Message) {
	k.buf = m.Payload // want "payload of frame m.+retained past synchronous delivery"
}

func (k *keeper) request(req dep.Request) dep.Response {
	k.buf = req.Body // want "payload of frame req.+retained past synchronous delivery"
	return dep.Response{Code: 200}
}

func bindRequests(k *keeper, later func(fn func())) {
	dep.Subscribe(k.message)
	dep.Subscribe(func(m dep.Message) {
		k.buf = append([]byte(nil), m.Payload...) // whoever keeps bytes copies them
		topic := m.Topic
		later(func() { _ = topic })
	})
	dep.Subscribe(func(m dep.Message) {
		later(func() { work(m.Payload) }) // want "captured by a closure"
	})
	dep.Serve(k.request)
	dep.Serve(func(req dep.Request) dep.Response {
		later(func() { work(req.Body) }) // want "captured by a closure"
		return dep.Response{Code: 202}
	})
	dep.Serve(func(req dep.Request) dep.Response {
		k.buf = append(k.buf[:0], req.Body...)
		path := req.Path // a value copied out of the request
		later(func() { _ = path })
		return dep.Response{Code: 200, Body: req.Body} // echoed: encoded before the server reads on
	})
}
