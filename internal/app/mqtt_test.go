package app

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"mosquitonet/internal/ip"
)

const testBrokerPort = 1883

// connectClient dials the rig's broker from stack a and runs the loop until
// the CONNACK lands.
func connectClient(t *testing.T, r *rig, id string) *Client {
	t.Helper()
	c := NewClient(r.a, id)
	var connErr error
	acked := false
	if err := c.Connect(r.bAddr, testBrokerPort, func(err error) { connErr = err; acked = true }); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(5 * time.Second)
	if !acked || connErr != nil {
		t.Fatalf("connect: acked=%v err=%v", acked, connErr)
	}
	if !c.Connected() {
		t.Fatal("client not connected")
	}
	return c
}

func TestMQTTPubSubQoS0(t *testing.T) {
	r := newRig(t, 1)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sub")
	pub := connectClient(t, r, "pub")

	var got []Message
	subAcked := false
	sub.Subscribe("sensors/mh1/temp", 0, func(m Message) { got = append(got, keep(m)) }, func() { subAcked = true })
	r.loop.RunFor(time.Second)
	if !subAcked {
		t.Fatal("no SUBACK")
	}

	pub.Publish("sensors/mh1/temp", []byte("21.5"), 0, false, nil)
	pub.Publish("sensors/mh1/hum", []byte("60"), 0, false, nil) // no match
	r.loop.RunFor(time.Second)

	if len(got) != 1 || got[0].Topic != "sensors/mh1/temp" || string(got[0].Payload) != "21.5" {
		t.Fatalf("delivered = %+v", got)
	}
	bs := broker.Stats()
	if bs.Connects != 2 || bs.Publishes != 2 || bs.Delivered != 1 {
		t.Fatalf("broker stats = %+v", bs)
	}
	if broker.Sessions() != 2 {
		t.Fatalf("sessions = %d", broker.Sessions())
	}
}

func TestMQTTQoS1PublishAcked(t *testing.T) {
	r := newRig(t, 1)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	pub := connectClient(t, r, "pub")

	acks := 0
	pub.Publish("cmd/x", []byte("go"), 1, false, func() { acks++ })
	if pub.InFlight() != 1 {
		t.Fatalf("in flight = %d", pub.InFlight())
	}
	r.loop.RunFor(time.Second)
	if acks != 1 || pub.InFlight() != 0 {
		t.Fatalf("acks=%d inflight=%d", acks, pub.InFlight())
	}
	if bs := broker.Stats(); bs.PubAcksSent != 1 {
		t.Fatalf("broker PubAcksSent = %d", bs.PubAcksSent)
	}
	if cs := pub.Stats(); cs.PubAcksReceived != 1 {
		t.Fatalf("client PubAcksReceived = %d", cs.PubAcksReceived)
	}
}

func TestMQTTQoS1Delivery(t *testing.T) {
	r := newRig(t, 1)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sub")
	pub := connectClient(t, r, "pub")

	var got []Message
	sub.Subscribe("cmd/mh1", 1, func(m Message) { got = append(got, keep(m)) }, nil)
	r.loop.RunFor(time.Second)
	pub.Publish("cmd/mh1", []byte("switch"), 1, false, nil)
	r.loop.RunFor(time.Second)

	if len(got) != 1 || got[0].QoS != 1 {
		t.Fatalf("delivered = %+v", got)
	}
	// The subscriber auto-acks the broker's QoS 1 delivery.
	if bs := broker.Stats(); bs.PubAcksReceived != 1 {
		t.Fatalf("broker PubAcksReceived = %d", bs.PubAcksReceived)
	}
	// QoS merge: a QoS 0 subscription downgrades a QoS 1 publish.
	var lo []Message
	sub.Subscribe("low/x", 0, func(m Message) { lo = append(lo, m) }, nil)
	r.loop.RunFor(time.Second)
	pub.Publish("low/x", []byte("y"), 1, false, nil)
	r.loop.RunFor(time.Second)
	if len(lo) != 1 || lo[0].QoS != 0 {
		t.Fatalf("merged delivery = %+v", lo)
	}
}

func TestMQTTRetained(t *testing.T) {
	r := newRig(t, 1)
	if _, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	pub := connectClient(t, r, "pub")
	pub.Publish("status/ch", []byte("up"), 0, true, nil)
	r.loop.RunFor(time.Second)

	// A subscriber arriving later still sees the retained state.
	sub := connectClient(t, r, "sub")
	var got []Message
	sub.Subscribe("status/ch", 0, func(m Message) { got = append(got, keep(m)) }, nil)
	r.loop.RunFor(time.Second)
	if len(got) != 1 || !got[0].Retained || string(got[0].Payload) != "up" {
		t.Fatalf("retained delivery = %+v", got)
	}
}

func TestMQTTSessionCleanup(t *testing.T) {
	r := newRig(t, 1)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sub")
	pub := connectClient(t, r, "pub")
	sub.Subscribe("t/x", 0, func(Message) {}, nil)
	r.loop.RunFor(time.Second)

	sub.Close()
	r.loop.RunFor(5 * time.Second)
	if broker.Sessions() != 1 {
		t.Fatalf("sessions after close = %d", broker.Sessions())
	}
	// The closed session's subscription is gone: publish fans out to no one.
	before := broker.Stats().Delivered
	pub.Publish("t/x", []byte("y"), 0, false, nil)
	r.loop.RunFor(time.Second)
	if broker.Stats().Delivered != before {
		t.Fatal("publish delivered to a closed session")
	}
}

// TestMQTTBadFrameDropsSession: a raw TCP client that speaks garbage is
// dropped and counted once — also when an unknown frame drops it and an
// oversized frame header follows in the same chunk.
func TestMQTTBadFrameDropsSession(t *testing.T) {
	oversized := []byte{1, 0, 0xFF, 0xFF}
	connect := encodeFrame(nil, mqttConnect, 0, appendString(nil, "raw"))
	for _, stream := range [][]byte{oversized, append(encodeFrame(connect, 99, 0, nil), oversized...)} {
		r := newRig(t, 1)
		broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
		if err != nil {
			t.Fatal(err)
		}
		conn, err := r.a.Connect(ip.Unspecified, r.bAddr, testBrokerPort)
		if err != nil {
			t.Fatal(err)
		}
		conn.OnEstablished = func() { conn.Write(stream) }
		r.loop.RunFor(5 * time.Second)
		bs := broker.Stats()
		if bs.DropBadFrame != 1 || bs.DropUnknownSession != 0 || broker.Sessions() != 0 {
			t.Fatalf("%x: DropBadFrame=%d DropUnknownSession=%d sessions=%d", stream, bs.DropBadFrame, bs.DropUnknownSession, broker.Sessions())
		}
	}
}

func TestMQTTLargePayloadSpansSegments(t *testing.T) {
	r := newRig(t, 1)
	if _, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sub")
	pub := connectClient(t, r, "pub")
	var got []Message
	sub.Subscribe("bulk", 1, func(m Message) { got = append(got, keep(m)) }, nil)
	r.loop.RunFor(time.Second)

	// 5000 bytes crosses several MSS-sized segments; framing must reassemble.
	payload := bytes.Repeat([]byte{0xAB}, 5000)
	pub.Publish("bulk", payload, 1, false, nil)
	r.loop.RunFor(5 * time.Second)
	if len(got) != 1 {
		t.Fatalf("messages = %d, want 1", len(got))
	}
	if !bytes.Equal(got[0].Payload, payload) {
		t.Fatalf("payload corrupted: len=%d", len(got[0].Payload))
	}
}

// TestMQTTResubscribeReplaces: a session that subscribes to a topic twice
// holds one subscription at the second QoS (MQTT 3.1.1 §3.8.4), so one
// publish is one delivery, which reaches each handler the client registered
// for the topic once, at QoS 0.
func TestMQTTResubscribeReplaces(t *testing.T) {
	r := newRig(t, 1)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sub")
	pub := connectClient(t, r, "pub")
	var first, second []Message
	sub.Subscribe("cmd/mh1", 1, func(m Message) { first = append(first, keep(m)) }, nil)
	sub.Subscribe("cmd/mh1", 0, func(m Message) { second = append(second, keep(m)) }, nil)
	r.loop.RunFor(time.Second)
	pub.Publish("cmd/mh1", []byte("go"), 1, false, nil)
	r.loop.RunFor(time.Second)

	for i, got := range [][]Message{first, second} {
		if len(got) != 1 || got[0].QoS != 0 || string(got[0].Payload) != "go" {
			t.Errorf("handler %d got %+v, want one QoS 0 delivery", i, got)
		}
	}
	if bs := broker.Stats(); bs.Subscribes != 2 || bs.Delivered != 1 {
		t.Fatalf("broker subscribes=%d delivered=%d, want 2 and 1", bs.Subscribes, bs.Delivered)
	}
}

// TestMQTTWildcardSubscribeRefused: topics are exact, so the client refuses
// a wildcard subscription before it reaches the wire.
func TestMQTTWildcardSubscribeRefused(t *testing.T) {
	r := newRig(t, 1)
	if _, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	sub := connectClient(t, r, "sub")
	for _, topic := range []string{"sensors/+/temp", "cmd/#", "#", ""} {
		if err := sub.Subscribe(topic, 0, func(Message) {}, nil); !errors.Is(err, ErrBadTopic) {
			t.Errorf("Subscribe(%q) = %v, want ErrBadTopic", topic, err)
		}
	}
}

// TestOversizedBodiesRefused: a body the peer's parser would refuse is an
// error from Publish and Do, and the largest one they accept arrives whole —
// a PUBLISH at its limit even when the broker delivers it at QoS 1.
func TestOversizedBodiesRefused(t *testing.T) {
	r := newRig(t, 1)
	if _, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker"); err != nil {
		t.Fatal(err)
	}
	startEcho(t, r)
	sub := connectClient(t, r, "sub")
	pub := connectClient(t, r, "pub")
	cli := dialHTTP(t, r, "cli")
	const topic = "bulk/mh1"
	var got []Message
	sub.Subscribe(topic, 1, func(m Message) { got = append(got, keep(m)) }, nil)
	r.loop.RunFor(time.Second)

	limit := MaxPublishPayload(topic)
	if err := pub.Publish(topic, make([]byte, limit+1), 0, false, nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Publish of %d bytes = %v, want ErrTooLarge", limit+1, err)
	}
	if err := cli.Do("POST", "/echo", make([]byte, MaxHTTPBody+1), nil); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Do with %d bytes = %v, want ErrTooLarge", MaxHTTPBody+1, err)
	}
	if cli.InFlight() != 0 {
		t.Fatal("a refused request is in flight")
	}
	body := stamped(1, limit)
	if err := pub.Publish(topic, body, 0, false, nil); err != nil {
		t.Fatal(err)
	}
	var echoed []byte
	if err := cli.Do("POST", "/echo", stamped(2, MaxHTTPBody), func(resp HTTPResponse, err error) {
		if err == nil {
			echoed = append([]byte(nil), resp.Body...)
		}
	}); err != nil {
		t.Fatal(err)
	}
	r.loop.RunFor(5 * time.Second)
	if len(got) != 1 || !bytes.Equal(got[0].Payload, body) || !sub.Connected() {
		t.Fatalf("%d deliveries of the largest publish, connected=%v", len(got), sub.Connected())
	}
	if !bytes.Equal(echoed, stamped(2, MaxHTTPBody)) {
		t.Fatalf("largest request echoed %d of %d bytes", len(echoed), MaxHTTPBody)
	}
}

// FuzzBrokerFrame writes a CONNECT and then arbitrary bytes to a broker from
// a raw connection, beside a subscriber and a publisher that speak the
// protocol. The broker must process every complete frame of the raw session
// or drop that session once, must never panic or hang, and must go on
// routing for the others.
func FuzzBrokerFrame(f *testing.F) {
	sub := func(id uint16, topic string, qos byte) []byte {
		return encodeFrame(nil, mqttSubscribe, 0, append(appendString([]byte{byte(id >> 8), byte(id)}, topic), qos))
	}
	pub := func(flags byte, topic string, payload string) []byte {
		return appendPublish(nil, flags, topic, 7, []byte(payload))
	}
	f.Add(append(sub(1, "a/+", 0), sub(2, "#", 1)...))
	f.Add(append(sub(1, "probe", 1), sub(2, "probe", 0)...))
	f.Add(pub(pubFlagQoS1, "probe/#", "wild"))
	f.Add(append(pub(pubFlagRetain, "status", "up"), append(pub(pubFlagRetain, "status", ""), sub(3, "status", 1)...)...))
	f.Add([]byte{mqttPublish, 0, 0xFF, 0xFF, 1, 2, 3})
	f.Fuzz(func(t *testing.T, stream []byte) {
		r := newRig(t, 1)
		broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
		if err != nil {
			t.Fatal(err)
		}
		subscriber := NewClient(r.a, "sub")
		publisher := NewClient(r.a, "pub")
		subscriber.Connect(r.bAddr, testBrokerPort, nil)
		publisher.Connect(r.bAddr, testBrokerPort, nil)
		r.loop.RunFor(time.Second)
		var after int
		if err := subscriber.Subscribe("probe", 1, func(m Message) {
			if string(m.Payload) == "after" {
				after++
			}
		}, nil); err != nil {
			t.Fatal(err)
		}
		r.loop.RunFor(time.Second)
		before := broker.Stats()

		wire := append(encodeFrame(nil, mqttConnect, 0, appendString(nil, "raw")), stream...)
		var ref frameReader
		frames := 0
		whole := ref.Feed(wire, func(byte, byte, []byte) { frames++ })
		raw, err := r.a.Connect(ip.Unspecified, r.bAddr, testBrokerPort)
		if err != nil {
			t.Fatal(err)
		}
		raw.OnEstablished = func() { raw.Write(wire) }
		r.loop.RunFor(10 * time.Second)

		bs := broker.Stats()
		handled := bs.Connects + bs.Subscribes + bs.Publishes + bs.PubAcksReceived -
			(before.Connects + before.Subscribes + before.Publishes + before.PubAcksReceived)
		drops := bs.DropBadFrame + bs.DropUnknownSession - before.DropBadFrame - before.DropUnknownSession
		switch {
		case broker.Sessions() == 3:
			if drops != 0 || !whole || handled != uint64(frames) {
				t.Fatalf("raw session alive after %d drops, handled %d of %d frames (stream well-framed: %v)", drops, handled, frames, whole)
			}
		case broker.Sessions() == 2:
			if drops != 1 {
				t.Fatalf("raw session gone with %d drops counted", drops)
			}
		default:
			t.Fatalf("%d sessions", broker.Sessions())
		}
		seen := after // the raw session may have published "after" too
		publisher.Publish("probe", []byte("after"), 1, false, nil)
		r.loop.RunFor(time.Second)
		if after != seen+1 {
			t.Fatalf("the subscriber got %d copies of a publish made after the raw stream", after-seen)
		}
	})
}

// keep copies a delivered message's payload: a handler is lent it for the
// call, and these tests read it afterwards.
func keep(m Message) Message {
	m.Payload = append([]byte(nil), m.Payload...)
	return m
}
