package app

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mosquitonet/internal/ip"
)

// stamped is a test payload of size bytes that says which message it is in
// every byte: the sequence number up front, a pattern derived from it behind.
func stamped(seq uint64, size int) []byte {
	p := Payload(seq, size)
	for i := seqPrefixLen; i < len(p); i++ {
		p[i] = byte(seq) + byte(i)
	}
	return p
}

// TestMessageBodiesNotRetained runs a broker with a retained message and two
// QoS-1 subscribers, and an HTTP echo server with a pipelining client, on
// connections that scribble over every message body the moment the deliver
// call it was lent for returns. Exactly-once delivery, the retained replay
// and the echoed bodies must be what they are without the scribbling: the
// broker's fan-out and the echo response are encoded before deliver returns,
// and the retained store copies.
func TestMessageBodiesNotRetained(t *testing.T) {
	r := newRig(t, 3)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	web := startEcho(t, r)
	pub := connectClient(t, r, "pub")
	subs := []*Client{connectClient(t, r, "sub1"), connectClient(t, r, "sub2")}
	cli := dialHTTP(t, r, "cli")
	broker.PoisonLentBodies()
	web.PoisonLentBodies()
	pub.PoisonLentBodies()
	cli.PoisonLentBodies()
	for _, s := range subs {
		s.PoisonLentBodies()
	}

	retainedAcked := false
	pub.Publish("status/door", []byte("open"), 1, true, func() { retainedAcked = true })
	r.loop.RunFor(time.Second)
	if !retainedAcked {
		t.Fatal("retained publish not acknowledged")
	}

	const messages, size = 300, 700
	next := make([]uint64, len(subs)) // per subscriber: messages seen so far, in order
	var kept []byte                   // what a handler that does not copy is left with
	for i, s := range subs {
		i := i
		if err := s.Subscribe("data/x", 1, func(m Message) {
			next[i]++
			if !bytes.Equal(m.Payload, stamped(next[i], size)) || m.QoS != 1 || m.Topic != "data/x" {
				t.Errorf("subscriber %d, delivery %d: wrong or duplicated message %q (%d bytes, QoS %d)", i, next[i], m.Topic, len(m.Payload), m.QoS)
			}
			if i == 0 && next[i] == 1 {
				kept = m.Payload
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var replayed []string
	onStatus := func(m Message) {
		replayed = append(replayed, fmt.Sprintf("%s=%s retained=%v", m.Topic, m.Payload, m.Retained))
	}
	if err := subs[0].Subscribe("status/door", 1, onStatus, nil); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(time.Second)

	// Several publishes and requests per tick, so that one chunk carries more
	// than one message and a body is lent while others wait behind it.
	acked, echoed := 0, 0
	for seq := uint64(1); seq <= messages; seq++ {
		if err := pub.Publish("data/x", stamped(seq, size), 1, false, func() { acked++ }); err != nil {
			t.Fatal(err)
		}
		seq := seq
		if err := cli.Do("POST", "/echo", stamped(seq, 4096), func(resp HTTPResponse, err error) {
			echoed++
			if err != nil || resp.Code != 200 || !bytes.Equal(resp.Body, stamped(seq, 4096)) {
				t.Errorf("echo %d: code %d, err %v, %d bytes, intact=%v", seq, resp.Code, err, len(resp.Body), bytes.Equal(resp.Body, stamped(seq, 4096)))
			}
		}); err != nil {
			t.Fatal(err)
		}
		if seq%4 == 0 {
			r.loop.RunFor(time.Millisecond)
		}
	}
	// The late subscriber's replay comes from the retained store, long after
	// the publish that filled it was scribbled over.
	if err := subs[1].Subscribe("status/door", 1, onStatus, nil); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(10 * time.Second)

	if acked != messages || echoed != messages || pub.InFlight() != 0 || cli.InFlight() != 0 {
		t.Fatalf("%d of %d publishes acknowledged, %d echoed; %d and %d still in flight", acked, messages, echoed, pub.InFlight(), cli.InFlight())
	}
	for i, n := range next {
		if n != messages {
			t.Fatalf("subscriber %d received %d of %d", i, n, messages)
		}
	}
	want := []string{"status/door=open retained=true", "status/door=open retained=true"}
	if fmt.Sprint(replayed) != fmt.Sprint(want) {
		t.Fatalf("retained replays = %q, want %q", replayed, want)
	}
	if bs := broker.Stats(); bs.PubAcksReceived != bs.Delivered || bs.Delivered != 2*messages+2 {
		t.Fatalf("broker delivered %d, acknowledged %d, want %d of each", bs.Delivered, bs.PubAcksReceived, 2*messages+2)
	}
	if ws := web.Stats(); ws.Requests != messages || ws.Responses != messages || ws.BadRequests != 0 {
		t.Fatalf("web stats = %+v", ws)
	}
	// The control: the scribbling does reach a handler that keeps its window.
	if len(kept) != size || !bytes.Equal(kept, bytes.Repeat([]byte{0xDB}, size)) {
		t.Fatalf("a kept payload survived (%d bytes, starts %x): the poison is not reaching the lent window", len(kept), kept[:min(len(kept), 8)])
	}
}

// TestFeedReentrantKeepsOuterBody: deliver re-enters Feed on the same parser
// — what a write to a loopback connection does — with a chunk that leaves a
// partial message behind. The body lent to the outer deliver must stay intact
// until that call returns, whether the inner append fits the array or moves
// the buffer, and the partial message must survive to be completed.
func TestFeedReentrantKeepsOuterBody(t *testing.T) {
	for _, innerSize := range []int{16, 3000} { // fits the array's slack; outgrows it
		outer := bytes.Repeat([]byte("outer"), 8)
		tail := encodeFrame(nil, 9, 0, bytes.Repeat([]byte("t"), 64))
		inner := append(encodeFrame(nil, 4, 0, bytes.Repeat([]byte("i"), innerSize)), tail[:30]...)

		var r frameReader
		r.buf = make([]byte, 0, 1024)
		var got []string
		var deliver frameDeliver
		deliver = func(typ, _ byte, body []byte) {
			got = append(got, fmt.Sprintf("%d:%d", typ, len(body)))
			if typ != 3 {
				return
			}
			if !r.Feed(inner, deliver) {
				t.Error("inner Feed rejected a well-formed chunk")
			}
			if !bytes.Equal(body, outer) {
				t.Errorf("inner %d: the outer body changed under its handler: %q", innerSize, body)
			}
		}
		stream := encodeFrame(encodeFrame(nil, 3, 0, outer), 5, 0, []byte("second"))
		if !r.Feed(stream, deliver) || !r.Feed(tail[30:], deliver) {
			t.Fatal("well-formed stream rejected")
		}
		want := fmt.Sprint([]string{"3:40", "5:6", fmt.Sprintf("4:%d", innerSize), "9:64"})
		if fmt.Sprint(got) != want {
			t.Fatalf("inner %d: deliveries %v, want %v", innerSize, got, want)
		}
		if r.depth != 0 || r.off != 0 || len(r.buf) != 0 {
			t.Fatalf("inner %d: parser left at depth %d, offset %d, %d bytes buffered", innerSize, r.depth, r.off, len(r.buf))
		}

		var p httpParser
		p.buf = make([]byte, 0, 8192)
		httpTail := appendHTTPRequest(nil, "PUT", "/tail", bytes.Repeat([]byte("t"), 64))
		httpInner := append(appendHTTPResponse(nil, 204, bytes.Repeat([]byte("i"), 3*innerSize)), httpTail[:50]...)
		got = got[:0]
		var hd httpDeliver
		hd = func(start string, body []byte) {
			got = append(got, fmt.Sprintf("%s:%d", start, len(body)))
			if start != "POST /outer MNET/1.0" {
				return
			}
			if !p.feed(httpInner, hd) {
				t.Error("inner feed rejected a well-formed chunk")
			}
			if !bytes.Equal(body, outer) {
				t.Errorf("inner %d: the outer HTTP body changed under its handler: %q", innerSize, body)
			}
		}
		if !p.feed(appendHTTPRequest(nil, "POST", "/outer", outer), hd) || !p.feed(httpTail[50:], hd) {
			t.Fatal("well-formed HTTP stream rejected")
		}
		want = fmt.Sprint([]string{"POST /outer MNET/1.0:40", fmt.Sprintf("MNET/1.0 204:%d", 3*innerSize), "PUT /tail MNET/1.0:64"})
		if fmt.Sprint(got) != want {
			t.Fatalf("inner %d: HTTP deliveries %v, want %v", innerSize, got, want)
		}
	}
}

// TestFeedReentrantOverLoopback: a broker and its client on one host talk
// over the loopback interface, and the subscriber's handler publishes — its
// PUBACK and its own publication come back into the parser that lent it the
// body it is still holding. Today every hop of the stack is a scheduled
// event, so the answer arrives after the handler has returned and the depth
// logged below is 1; a stack that delivered loopback inline would re-enter
// Feed here, and the same assertions would hold it to the rule
// TestFeedReentrantKeepsOuterBody pins directly.
func TestFeedReentrantOverLoopback(t *testing.T) {
	r := newRig(t, 5)
	if _, err := NewBroker(r.a, ip.Unspecified, testBrokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	c := NewClient(r.a, "self")
	if err := c.Connect(r.aAddr, testBrokerPort, nil); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(time.Second)
	if !c.Connected() {
		t.Fatal("no CONNACK over loopback")
	}

	const rounds = 40
	var order []uint64
	depth, acked := 0, 0
	handler := func(m Message) {
		seq, _ := PayloadSeq(m.Payload)
		order = append(order, seq)
		depth = max(depth, c.reader.depth)
		want := stamped(seq, 900)
		if seq < rounds {
			// The PUBACK and the next publication arrive through c.reader.
			if err := c.Publish("loop/x", stamped(seq+1, 900), 1, false, func() { acked++ }); err != nil {
				t.Error(err)
			}
		}
		if !bytes.Equal(m.Payload, want) {
			t.Errorf("message %d changed under its handler (now starts %x)", seq, m.Payload[:seqPrefixLen])
		}
	}
	if err := c.Subscribe("loop/x", 1, handler, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Publish("loop/x", stamped(1, 900), 1, false, func() { acked++ }); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(time.Second)
	if len(order) != rounds || acked != rounds {
		t.Fatalf("%d deliveries, %d acknowledgments, want %d of each", len(order), acked, rounds)
	}
	for i, seq := range order {
		if seq != uint64(i+1) {
			t.Fatalf("delivery order %v", order)
		}
	}
	t.Logf("deepest Feed nesting seen by the handler: %d", depth)
	if c.reader.depth != 0 || c.reader.off != 0 {
		t.Fatalf("parser left at depth %d, offset %d", c.reader.depth, c.reader.off)
	}
}
