package dns

import (
	"errors"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/transport"
)

// Resolver errors.
var (
	ErrTimeout  = errors.New("dns: no response from server")
	ErrNXDomain = errors.New("dns: no such name")
	ErrRefused  = errors.New("dns: update refused")
)

// A query or update unanswered for retryInterval is sent again, up to
// maxTries transmissions before the resolver reports ErrTimeout.
const (
	retryInterval = time.Second
	maxTries      = 3
)

// Resolver issues queries and updates against a server.
type Resolver struct {
	ts     *transport.Stack
	loop   *sim.Loop
	server ip.Addr
	idSeq  uint16
}

// NewResolver creates a resolver pointed at server.
func NewResolver(ts *transport.Stack, server ip.Addr) *Resolver {
	return &Resolver{ts: ts, loop: ts.Host().Loop(), server: server}
}

// Resolve looks name up, invoking done exactly once with the address or an
// error (ErrNXDomain, ErrTimeout, or a marshal/socket failure).
func (r *Resolver) Resolve(name string, done func(ip.Addr, error)) {
	r.idSeq++
	q := &Message{ID: r.idSeq, Op: OpQuery, Name: name}
	r.exchange(q, OpResponse, func(resp *Message, err error) {
		switch {
		case err != nil:
			done(ip.Addr{}, err)
		case resp.Rcode == RcodeNXDomain:
			done(ip.Addr{}, ErrNXDomain)
		case resp.Rcode != RcodeOK:
			done(ip.Addr{}, ErrRefused)
		default:
			done(ip.Addr(resp.Addr), nil)
		}
	})
}

// Update binds name to addr at the server (the extended operation).
func (r *Resolver) Update(name string, addr ip.Addr, done func(error)) {
	r.idSeq++
	u := &Message{ID: r.idSeq, Op: OpUpdate, Name: name, Addr: addr}
	r.exchange(u, OpUpdateOK, func(resp *Message, err error) {
		switch {
		case err != nil:
			done(err)
		case resp.Rcode != RcodeOK:
			done(ErrRefused)
		default:
			done(nil)
		}
	})
}

// exchange sends msg and retries until a response with the expected op and
// matching ID arrives, or retries are exhausted.
func (r *Resolver) exchange(msg *Message, wantOp uint8, done func(*Message, error)) {
	raw, err := msg.Marshal()
	if err != nil {
		done(nil, err)
		return
	}
	var sock *transport.UDPSocket
	var timer sim.Timer
	finished := false
	finish := func(resp *Message, err error) {
		if finished {
			return
		}
		finished = true
		timer.Stop()
		sock.Close()
		done(resp, err)
	}
	sock, err = r.ts.UDP(ip.Unspecified, 0, func(d transport.Datagram) {
		resp, err := Unmarshal(d.Payload)
		if err != nil || resp.ID != msg.ID || resp.Op != wantOp {
			//lint:allow dropaccounting duplicate or foreign responses after retransmission are expected; real loss surfaces as ErrTimeout
			return
		}
		finish(resp, nil)
	})
	if err != nil {
		done(nil, err)
		return
	}
	tries := 0
	var attempt func()
	attempt = func() {
		if finished {
			return
		}
		tries++
		if tries > maxTries {
			finish(nil, ErrTimeout)
			return
		}
		sock.SendTo(r.server, Port, raw)
		timer = r.loop.Schedule(retryInterval, attempt)
	}
	attempt()
}
