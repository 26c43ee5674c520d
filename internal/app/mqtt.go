package app

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// The MQTT-style wire protocol: framed messages (see app.go) over one
// stream connection per client. The shape follows MQTT 3.1.1's control
// packets — CONNECT/CONNACK, SUBSCRIBE/SUBACK, PUBLISH/PUBACK — with the
// simulator's own fixed framing instead of MQTT's variable-length header.
// QoS 0 is fire-and-forget; QoS 1 carries a message ID and is acknowledged
// with a PUBACK by whichever side received the PUBLISH. There is no
// app-level retransmission: the stream below is reliable, so a QoS 1
// message in flight across a handoff is delivered exactly once — that
// invariant is pinned by the testbed's conformance test.
const (
	mqttConnect   = 1
	mqttConnAck   = 2
	mqttPublish   = 3
	mqttPubAck    = 4
	mqttSubscribe = 8
	mqttSubAck    = 9
)

// PUBLISH flag bits.
const (
	pubFlagRetain = 1 << 0
	pubFlagQoS1   = 1 << 1
	pubFlagDup    = 1 << 2
)

// App-layer errors.
var (
	ErrNotConnected = errors.New("app: client not connected")
	ErrBadTopic     = errors.New("app: empty topic or one with a wildcard")
	ErrClosed       = errors.New("app: closed")
	ErrTooLarge     = errors.New("app: body larger than the peer accepts")
)

// Message is one delivered publication. Payload is lent for the handler
// call: a window into the connection's parser, see lentBuf.
type Message struct {
	Topic    string
	Payload  []byte
	QoS      byte
	Retained bool // delivered from the broker's retained store
	Dup      bool
}

// MessageHandler receives the publications matching one subscription. A
// handler that keeps m.Payload past its return copies it.
//
//mnet:ownership borrows m
type MessageHandler func(m Message)

// BrokerStats counts broker activity.
type BrokerStats struct {
	Connects           uint64 // CONNECT frames accepted
	Subscribes         uint64
	Publishes          uint64 // PUBLISH frames received from clients
	Delivered          uint64 // PUBLISH frames fanned out to subscribers
	RetainedDelivered  uint64 // retained messages replayed on subscribe
	PubAcksSent        uint64 // acks to publishing clients (QoS 1 inbound)
	PubAcksReceived    uint64 // acks from subscribers (QoS 1 outbound)
	SessionsClosed     uint64
	DropBadFrame       uint64 // malformed frame or oversized body; session dropped
	DropUnknownSession uint64 // frame before CONNECT; session dropped
}

// Broker is an MQTT-style pub/sub broker listening on one TCP port. All
// state lives in the simulation loop; a Broker must only be touched from
// loop callbacks.
type Broker struct {
	ts     *transport.Stack
	loop   *sim.Loop
	tracer *trace.Tracer
	name   string

	sessions []*brokerSession // accept order; closed sessions removed in place
	topics   topicIndex
	stats    BrokerStats
}

// brokerSession is the broker-side state for one client connection.
type brokerSession struct {
	b          *Broker
	conn       *transport.Conn
	reader     frameReader
	wbuf       []byte // encode scratch, see writeMsg
	clientID   string
	connected  bool
	closed     bool
	span       *trace.Span
	topics     []string // subscribed, each once
	nextMsgID  uint16
	pendingOut map[uint16]struct{} // QoS 1 deliveries awaiting PUBACK
}

// NewBroker starts a broker on (bound, port) of the given transport stack.
// The tracer is taken from the stack's loop association (trace.For), so
// testbeds that enabled tracing get app.* spans for free.
func NewBroker(ts *transport.Stack, bound ip.Addr, port uint16, name string) (*Broker, error) {
	b := &Broker{
		ts:     ts,
		loop:   ts.Host().Loop(),
		tracer: trace.For(ts.Host().Loop()),
		name:   name,
		topics: make(topicIndex),
	}
	if _, err := ts.Listen(bound, port, b.accept); err != nil {
		return nil, err
	}
	return b, nil
}

// Stats returns a snapshot of the broker's counters.
func (b *Broker) Stats() BrokerStats { return b.stats }

// Sessions returns the number of live client sessions.
func (b *Broker) Sessions() int { return len(b.sessions) }

func (b *Broker) accept(conn *transport.Conn) {
	s := &brokerSession{b: b, conn: conn, pendingOut: make(map[uint16]struct{})}
	s.span = b.tracer.StartChild(nil, b.name, kSpanSession)
	b.sessions = append(b.sessions, s)
	conn.OnData = func(chunk []byte) {
		// A session a frame already dropped is not dropped again for a
		// malformed header behind that frame.
		if !s.reader.Feed(chunk, s.frame) && !s.closed {
			b.stats.DropBadFrame++
			s.drop("bad frame")
		}
	}
	conn.OnRemoteClose = func() { s.close() }
	conn.OnError = func(error) { s.close() }
}

// drop aborts a misbehaving session.
func (s *brokerSession) drop(reason string) {
	s.span.SetAttr("drop", reason)
	s.close()
	s.conn.Abort()
}

// close tears down session state (idempotent).
func (s *brokerSession) close() {
	if s.closed {
		return
	}
	s.closed = true
	s.b.stats.SessionsClosed++
	for _, topic := range s.topics {
		s.b.topics.unsubscribe(topic, s)
	}
	for i, other := range s.b.sessions {
		if other == s {
			s.b.sessions = append(s.b.sessions[:i], s.b.sessions[i+1:]...)
			break
		}
	}
	s.span.Done()
}

// frame handles one decoded frame from the client.
func (s *brokerSession) frame(typ, flags byte, body []byte) {
	if s.closed {
		return
	}
	if !s.connected && typ != mqttConnect {
		s.b.stats.DropUnknownSession++
		s.drop("frame before connect")
		return
	}
	switch typ {
	case mqttConnect:
		id, _, ok := readString(body)
		if !ok {
			s.b.stats.DropBadFrame++
			s.drop("bad connect")
			return
		}
		s.clientID = id
		s.connected = true
		s.b.stats.Connects++
		s.span.SetAttr("client", id)
		s.send(mqttConnAck, []byte{0})
	case mqttSubscribe:
		if len(body) < 2 {
			s.b.stats.DropBadFrame++
			s.drop("bad subscribe")
			return
		}
		msgID := binary.BigEndian.Uint16(body)
		topic, rest, ok := readString(body[2:])
		if !ok || len(rest) != 1 || !ValidTopic(topic) {
			s.b.stats.DropBadFrame++
			s.drop("bad subscribe")
			return
		}
		qos := rest[0] & 1
		s.b.stats.Subscribes++
		if s.b.topics.subscribe(topic, s, qos) {
			s.topics = append(s.topics, topic)
		}
		s.send(mqttSubAck, []byte{byte(msgID >> 8), byte(msgID), qos})
		// Replay the topic's retained message, on a repeated subscription
		// too.
		if rm := s.b.topics[topic].retained; rm != nil {
			s.b.stats.RetainedDelivered++
			s.deliver(topic, rm, qos, true)
		}
	case mqttPublish:
		topic, rest, ok := readString(body)
		if !ok || !ValidTopic(topic) {
			s.b.stats.DropBadFrame++
			s.drop("bad publish")
			return
		}
		qos := byte(0)
		var msgID uint16
		if flags&pubFlagQoS1 != 0 {
			if len(rest) < 2 {
				s.b.stats.DropBadFrame++
				s.drop("bad publish")
				return
			}
			qos = 1
			msgID = binary.BigEndian.Uint16(rest)
			rest = rest[2:]
		}
		s.b.stats.Publishes++
		if flags&pubFlagRetain != 0 {
			s.b.topics.setRetained(topic, rest)
		}
		s.b.route(topic, rest, qos)
		if qos == 1 {
			s.b.stats.PubAcksSent++
			s.send(mqttPubAck, []byte{byte(msgID >> 8), byte(msgID)})
		}
	case mqttPubAck:
		if len(body) < 2 {
			s.b.stats.DropBadFrame++
			s.drop("bad puback")
			return
		}
		s.b.stats.PubAcksReceived++
		delete(s.pendingOut, binary.BigEndian.Uint16(body))
	default:
		s.b.stats.DropBadFrame++
		s.drop(fmt.Sprintf("unknown type %d", typ))
	}
}

// send writes one flagless frame to this session's client.
func (s *brokerSession) send(typ byte, body []byte) {
	s.wbuf, _ = writeMsg(s.conn, encodeFrame(s.wbuf, typ, 0, body))
}

// route fans a publication out to the topic's subscriptions, in
// registration order. Delivery QoS is the minimum of the publish QoS and the
// subscription's granted QoS, per MQTT.
func (b *Broker) route(topic string, payload []byte, qos byte) {
	e := b.topics[topic]
	if e == nil {
		return
	}
	for _, sub := range e.subs {
		sub.sess.deliver(topic, payload, min(qos, sub.qos), false)
	}
}

// deliver sends one PUBLISH to this session's client.
func (s *brokerSession) deliver(topic string, payload []byte, qos byte, retained bool) {
	if s.closed {
		return
	}
	var flags byte
	if retained {
		flags |= pubFlagRetain
	}
	var msgID uint16
	if qos == 1 {
		flags |= pubFlagQoS1
		s.nextMsgID++
		if s.nextMsgID == 0 {
			s.nextMsgID = 1
		}
		s.pendingOut[s.nextMsgID] = struct{}{}
		msgID = s.nextMsgID
	}
	s.b.stats.Delivered++
	s.wbuf, _ = writeMsg(s.conn, appendPublish(s.wbuf, flags, topic, msgID, payload))
}

// MaxPublishPayload is the largest payload a publication to topic may carry:
// its PUBLISH frame's body also holds the topic and, when the broker delivers
// it at QoS 1 (a retained replay may, whatever the publisher's QoS), a
// message ID, and the frame must not outgrow what a peer's parser accepts.
func MaxPublishPayload(topic string) int {
	return maxFrameBody - 2 - len(topic) - 2
}

// appendPublish appends one PUBLISH frame, its body — topic, the message ID
// when flags say QoS 1, payload — built in place behind a header whose
// length is filled in last.
func appendPublish(dst []byte, flags byte, topic string, msgID uint16, payload []byte) []byte {
	start := len(dst)
	dst = appendString(append(dst, mqttPublish, flags, 0, 0), topic)
	if flags&pubFlagQoS1 != 0 {
		dst = append(dst, byte(msgID>>8), byte(msgID))
	}
	dst = append(dst, payload...)
	n := len(dst) - start - frameHeaderLen
	dst[start+2], dst[start+3] = byte(n>>8), byte(n)
	return dst
}

// ClientStats counts client activity.
type ClientStats struct {
	PublishesSent    uint64
	PubAcksReceived  uint64
	MessagesReceived uint64
	PubAcksSent      uint64 // acks for QoS 1 deliveries from the broker
}

// Client is an MQTT-style client over one stream connection.
type Client struct {
	ts     *transport.Stack
	loop   *sim.Loop
	tracer *trace.Tracer
	id     string
	actor  string // span actor: host/id

	conn      *transport.Conn
	reader    frameReader
	wbuf      []byte // encode scratch, see writeMsg
	connected bool
	closed    bool

	connectSpan *trace.Span
	onConnack   func(error)

	subs       []clientSub
	subAcks    []func() // SUBACK callbacks, FIFO
	pendingPub map[uint16]*clientPending
	nextMsgID  uint16

	// OnDisconnect, if set, fires when the connection dies (reset,
	// timeout, remote close).
	OnDisconnect func(error)

	stats ClientStats
}

type clientSub struct {
	topic   string
	handler MessageHandler
}

type clientPending struct {
	span  *trace.Span
	onAck func()
}

// NewClient creates a client on the given transport stack. Call Connect to
// dial the broker.
func NewClient(ts *transport.Stack, id string) *Client {
	return &Client{
		ts:         ts,
		loop:       ts.Host().Loop(),
		tracer:     trace.For(ts.Host().Loop()),
		id:         id,
		actor:      ts.Host().Name() + "/" + id,
		pendingPub: make(map[uint16]*clientPending),
	}
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats { return c.stats }

// Connected reports whether the CONNACK has been received.
func (c *Client) Connected() bool { return c.connected }

// Connect dials the broker (binding to the unspecified address, so the
// connection is subject to mobile IP on a mobile host and survives moves)
// and sends CONNECT. onConnack fires when the CONNACK arrives, or with an
// error if the connection fails first.
func (c *Client) Connect(broker ip.Addr, port uint16, onConnack func(error)) error {
	if c.closed {
		return ErrClosed
	}
	conn, err := c.ts.Connect(ip.Unspecified, broker, port)
	if err != nil {
		return err
	}
	c.conn = conn
	c.onConnack = onConnack
	c.connectSpan = c.tracer.StartChild(nil, c.actor, kSpanConnect)
	conn.OnEstablished = func() {
		c.send(mqttConnect, appendString(nil, c.id))
	}
	conn.OnData = func(chunk []byte) {
		if !c.reader.Feed(chunk, c.frame) {
			c.fail(errors.New("app: malformed frame from broker"))
		}
	}
	conn.OnError = func(err error) { c.fail(err) }
	conn.OnRemoteClose = func() { c.fail(ErrClosed) }
	return nil
}

// send writes one flagless frame to the broker.
func (c *Client) send(typ byte, body []byte) {
	c.wbuf, _ = writeMsg(c.conn, encodeFrame(c.wbuf, typ, 0, body))
}

// fail marks the client dead and flushes every pending callback.
func (c *Client) fail(err error) {
	if c.closed {
		return
	}
	c.closed = true
	c.connected = false
	if c.connectSpan.Open() {
		c.connectSpan.Fail(err)
	}
	if c.onConnack != nil {
		cb := c.onConnack
		c.onConnack = nil
		cb(err)
	}
	flushPending(c.pendingPub, err)
	if c.OnDisconnect != nil {
		c.OnDisconnect(err)
	}
}

// Close ends the session with an orderly stream close.
func (c *Client) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.connected = false
	c.connectSpan.Done()
	flushPending(c.pendingPub, ErrClosed)
	if c.conn != nil {
		c.conn.Close()
	}
}

// Subscribe registers a handler for every publication to topic and sends
// SUBSCRIBE. onAck (optional) fires on SUBACK. QoS 1 deliveries are
// acknowledged automatically. Topics are exact: a wildcard is ErrBadTopic.
// Subscribing again replaces the broker's subscription, so each handler
// registered for topic gets each publication once, at the latest QoS.
func (c *Client) Subscribe(topic string, qos byte, handler MessageHandler, onAck func()) error {
	if !c.connected {
		return ErrNotConnected
	}
	if !ValidTopic(topic) {
		return ErrBadTopic
	}
	// Root span: overlapping operations must not ambient-nest.
	sp := c.tracer.StartChild(nil, c.actor, kSpanSubscribe)
	sp.SetAttr("topic", topic)
	c.subs = append(c.subs, clientSub{topic: topic, handler: handler})
	c.subAcks = append(c.subAcks, func() {
		sp.Done()
		if onAck != nil {
			onAck()
		}
	})
	c.nextMsgID++
	body := []byte{byte(c.nextMsgID >> 8), byte(c.nextMsgID)}
	body = appendString(body, topic)
	body = append(body, qos&1)
	c.send(mqttSubscribe, body)
	return nil
}

// Publish sends a publication. For QoS 1 the message carries a message ID
// and onAck (optional) fires when the broker's PUBACK arrives; for QoS 0
// onAck fires immediately after the frame is queued. payload is borrowed:
// it is encoded into the connection before Publish returns. A payload over
// MaxPublishPayload(topic) is ErrTooLarge.
func (c *Client) Publish(topic string, payload []byte, qos byte, retain bool, onAck func()) error {
	if !c.connected {
		return ErrNotConnected
	}
	if !ValidTopic(topic) {
		return ErrBadTopic
	}
	if len(payload) > MaxPublishPayload(topic) {
		return ErrTooLarge
	}
	var flags byte
	if retain {
		flags |= pubFlagRetain
	}
	var msgID uint16
	if qos == 1 {
		flags |= pubFlagQoS1
		c.nextMsgID++
		if c.nextMsgID == 0 {
			c.nextMsgID = 1
		}
		sp := c.tracer.StartChild(nil, c.actor, kSpanPublish)
		sp.SetAttr("topic", topic)
		c.pendingPub[c.nextMsgID] = &clientPending{span: sp, onAck: onAck}
		msgID = c.nextMsgID
	}
	c.stats.PublishesSent++
	c.wbuf, _ = writeMsg(c.conn, appendPublish(c.wbuf, flags, topic, msgID, payload))
	if qos != 1 && onAck != nil {
		onAck()
	}
	return nil
}

// InFlight returns the number of QoS 1 publishes awaiting PUBACK.
func (c *Client) InFlight() int { return len(c.pendingPub) }

// frame handles one decoded frame from the broker.
func (c *Client) frame(typ, flags byte, body []byte) {
	switch typ {
	case mqttConnAck:
		c.connected = true
		c.connectSpan.Done()
		if c.onConnack != nil {
			cb := c.onConnack
			c.onConnack = nil
			cb(nil)
		}
	case mqttSubAck:
		if len(c.subAcks) > 0 {
			ack := c.subAcks[0]
			c.subAcks = c.subAcks[1:]
			ack()
		}
	case mqttPublish:
		topic, rest, ok := readString(body)
		if !ok {
			return
		}
		qos := byte(0)
		if flags&pubFlagQoS1 != 0 {
			if len(rest) < 2 {
				return
			}
			qos = 1
			msgID := binary.BigEndian.Uint16(rest)
			rest = rest[2:]
			c.stats.PubAcksSent++
			c.send(mqttPubAck, []byte{byte(msgID >> 8), byte(msgID)})
		}
		c.stats.MessagesReceived++
		m := Message{
			Topic:    topic,
			Payload:  rest,
			QoS:      qos,
			Retained: flags&pubFlagRetain != 0,
			Dup:      flags&pubFlagDup != 0,
		}
		for _, sub := range c.subs {
			if sub.topic == topic && sub.handler != nil {
				sub.handler(m)
			}
		}
	case mqttPubAck:
		if len(body) < 2 {
			return
		}
		id := binary.BigEndian.Uint16(body)
		if p, ok := c.pendingPub[id]; ok {
			delete(c.pendingPub, id)
			c.stats.PubAcksReceived++
			p.span.Done()
			if p.onAck != nil {
				p.onAck()
			}
		}
	}
}

// flushPending fails every outstanding QoS 1 publish, in message-ID order
// so callback order is deterministic.
func flushPending(pending map[uint16]*clientPending, err error) {
	if len(pending) == 0 {
		return
	}
	ids := make([]int, 0, len(pending))
	for id := range pending {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	for _, id := range ids {
		p := pending[uint16(id)]
		delete(pending, uint16(id))
		p.span.Fail(err)
	}
}
