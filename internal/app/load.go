package app

import (
	"encoding/binary"
	"time"

	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
)

// Traffic models: generators that drive the protocol machinery at a
// controlled rate and account every message into a stats.FlowTracker.
//
// Two disciplines, per the classic load-generation distinction:
//
//   - Open loop: messages are emitted on a fixed schedule regardless of
//     completions, so a stalled connection accumulates backlog — exactly
//     how periodic telemetry behaves across a handoff, and the model that
//     exposes queueing collapse.
//   - Closed loop: a new request is issued only after the previous one
//     completes, plus a think time — the interactive-user model, which
//     self-throttles during a stall and measures recovery latency instead.
//
// Every message carries an 8-byte big-endian sequence number as its
// payload prefix; the tracker's Sent/Received pairing keys on it.

// seqPrefixLen is the sequence-number prefix on every load-model payload.
const seqPrefixLen = 8

// Payload builds a load-model payload of exactly size bytes (minimum the
// 8-byte sequence prefix) carrying seq. The flows below build one each and
// restamp it: Publish and Do borrow what they are given.
func Payload(seq uint64, size int) []byte {
	if size < seqPrefixLen {
		size = seqPrefixLen
	}
	p := make([]byte, size)
	binary.BigEndian.PutUint64(p, seq)
	return p
}

// PayloadSeq extracts the sequence number from a load-model payload.
func PayloadSeq(p []byte) (uint64, bool) {
	if len(p) < seqPrefixLen {
		return 0, false
	}
	return binary.BigEndian.Uint64(p), true
}

// SinkHandler returns a message handler that records every arrival into
// tracker — the subscriber end of a PubFlow.
func SinkHandler(loop *sim.Loop, tracker *stats.FlowTracker) MessageHandler {
	return func(m Message) {
		if seq, ok := PayloadSeq(m.Payload); ok {
			tracker.Received(seq, loop.Now())
		}
	}
}

// PubFlow is an open-loop telemetry publisher: every interval it publishes
// one sequence-stamped message to its topic, whether or not earlier
// publishes have completed.
type PubFlow struct {
	client   *Client
	tracker  *stats.FlowTracker
	topic    string
	interval time.Duration
	qos      byte
	payload  []byte // restamped with seq on every tick

	loop    *sim.Loop
	seq     uint64
	running bool
	timer   sim.Timer
}

// NewPubFlow creates a publisher flow; Start begins the schedule.
func NewPubFlow(client *Client, tracker *stats.FlowTracker, topic string, interval time.Duration, qos byte, size int) *PubFlow {
	return &PubFlow{
		client:   client,
		tracker:  tracker,
		topic:    topic,
		interval: interval,
		qos:      qos,
		payload:  Payload(0, size),
		loop:     client.loop,
	}
}

// Start begins publishing, first message one interval from now.
func (p *PubFlow) Start() {
	if p.running {
		return
	}
	p.running = true
	p.timer = p.loop.Schedule(p.interval, p.tick)
}

// Stop halts the schedule; in-flight messages still complete.
func (p *PubFlow) Stop() {
	p.running = false
	p.timer.Stop()
}

// Sent returns the number of messages published so far.
func (p *PubFlow) Sent() uint64 { return p.seq }

func (p *PubFlow) tick() {
	if !p.running {
		return
	}
	// Open loop: the next tick is scheduled before this one's publish, so
	// the rate never depends on publish outcomes.
	p.timer = p.loop.Schedule(p.interval, p.tick)
	p.seq++
	seq := p.seq
	p.tracker.Sent(seq, p.loop.Now())
	// Publish errors (client not yet connected, torn down) leave the
	// sequence number sent-but-never-received — accounted as loss, which
	// is the honest reading of telemetry emitted into a dead session.
	binary.BigEndian.PutUint64(p.payload, seq)
	_ = p.client.Publish(p.topic, p.payload, p.qos, false, nil)
}

// ReqFlow drives the request/response protocol, open- or closed-loop. The
// tracker's latency samples are request round-trip times.
type ReqFlow struct {
	client   *HTTPClient
	tracker  *stats.FlowTracker
	path     string
	interval time.Duration // emission period (open loop) or think time (closed loop)
	closed   bool
	payload  []byte // restamped with seq on every tick

	loop    *sim.Loop
	seq     uint64
	running bool
	timer   sim.Timer
}

// NewReqFlow creates a request flow; closedLoop selects the discipline.
func NewReqFlow(client *HTTPClient, tracker *stats.FlowTracker, path string, interval time.Duration, closedLoop bool, size int) *ReqFlow {
	return &ReqFlow{
		client:   client,
		tracker:  tracker,
		path:     path,
		interval: interval,
		closed:   closedLoop,
		payload:  Payload(0, size),
		loop:     client.loop,
	}
}

// Start begins issuing requests, first one interval from now.
func (r *ReqFlow) Start() {
	if r.running {
		return
	}
	r.running = true
	r.timer = r.loop.Schedule(r.interval, r.tick)
}

// Stop halts the flow; in-flight requests still complete.
func (r *ReqFlow) Stop() {
	r.running = false
	r.timer.Stop()
}

func (r *ReqFlow) tick() {
	if !r.running {
		return
	}
	if !r.closed {
		// Open loop: fixed schedule, independent of completions.
		r.timer = r.loop.Schedule(r.interval, r.tick)
	}
	r.seq++
	seq := r.seq
	r.tracker.Sent(seq, r.loop.Now())
	binary.BigEndian.PutUint64(r.payload, seq)
	err := r.client.Do("POST", r.path, r.payload, func(resp HTTPResponse, err error) {
		if err == nil {
			r.tracker.Received(seq, r.loop.Now())
		}
		// Closed loop: think, then issue the next request — whether this
		// one succeeded or died with the connection.
		if r.closed && r.running {
			r.timer = r.loop.Schedule(r.interval, r.tick)
		}
	})
	if err != nil && r.closed && r.running {
		// The request was never issued (client closed); keep the clock
		// ticking so the flow resumes if the client is replaced.
		r.timer = r.loop.Schedule(r.interval, r.tick)
	}
}

// EchoHandler is the standard server handler for ReqFlow traffic: echo the
// body back with code 200, so request and response sizes match. The body it
// returns is the lent one; the server encodes it before reading on.
func EchoHandler(req HTTPRequest) HTTPResponse {
	return HTTPResponse{Code: 200, Body: req.Body}
}
