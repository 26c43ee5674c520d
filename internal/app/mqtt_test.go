package app

import (
	"bytes"
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
	sub.Subscribe("sensors/+/temp", 0, func(m Message) { got = append(got, keep(m)) }, func() { subAcked = true })
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
	sub.Subscribe("cmd/#", 1, func(m Message) { got = append(got, keep(m)) }, nil)
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
	sub.Subscribe("low/#", 0, func(m Message) { lo = append(lo, m) }, nil)
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
	sub.Subscribe("status/#", 0, func(m Message) { got = append(got, keep(m)) }, nil)
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
	sub.Subscribe("t/#", 0, func(Message) {}, nil)
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

func TestMQTTBadFrameDropsSession(t *testing.T) {
	r := newRig(t, 1)
	broker, err := NewBroker(r.b, ip.Unspecified, testBrokerPort, "broker")
	if err != nil {
		t.Fatal(err)
	}
	// A raw TCP client that speaks garbage: oversized frame header.
	conn, err := r.a.Connect(ip.Unspecified, r.bAddr, testBrokerPort)
	if err != nil {
		t.Fatal(err)
	}
	conn.OnEstablished = func() { conn.Write([]byte{1, 0, 0xFF, 0xFF}) }
	r.loop.RunFor(5 * time.Second)
	bs := broker.Stats()
	if bs.DropBadFrame != 1 || broker.Sessions() != 0 {
		t.Fatalf("DropBadFrame=%d sessions=%d", bs.DropBadFrame, broker.Sessions())
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

// keep copies a delivered message's payload: a handler is lent it for the
// call, and these tests read it afterwards.
func keep(m Message) Message {
	m.Payload = append([]byte(nil), m.Payload...)
	return m
}
