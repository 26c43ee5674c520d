package dhcp

import (
	"errors"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
	"mosquitonet/internal/transport"
)

// kSpanAcquire bounds one DISCOVER/OFFER/REQUEST/ACK exchange in the
// loop-associated tracer's span tree; under a mobile-host handoff it nests
// inside the "handoff.dhcp" phase.
const kSpanAcquire = "dhcp.acquire"

// ClientConfig tunes the client's retry behaviour.
type ClientConfig struct {
	RetryInterval time.Duration // per-attempt timeout (default 500ms)
	MaxRetries    int           // attempts per phase (default 4)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.RetryInterval == 0 {
		c.RetryInterval = 500 * time.Millisecond
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	return c
}

// Client errors.
var (
	ErrAcquireTimeout = errors.New("dhcp: no server responded")
	ErrNak            = errors.New("dhcp: server refused the request")
	ErrBusy           = errors.New("dhcp: acquisition already in progress")
)

type clientState int

const (
	stateIdle clientState = iota
	stateDiscover
	stateRequest
	stateBound
)

// Client acquires and renews a lease on one interface. Renewal traffic is
// sent from the leased (care-of) address directly on the interface — the
// mobile host's "local role"; it never goes near mobile IP routing.
type Client struct {
	loop *sim.Loop
	ts   *transport.Stack
	ifc  *stack.Iface
	hw   link.HWAddr
	cfg  ClientConfig

	sock      *transport.UDPSocket // wildcard :68, for broadcast replies
	renewSock *transport.UDPSocket // bound to the leased address

	state    clientState
	xid      uint32
	offer    *Message
	tries    int
	timer    sim.Timer
	renewT   sim.Timer
	lease    Lease
	acquired bool
	done     func(Lease, error)
	span     *trace.Span // "dhcp.acquire": one exchange, Acquire to outcome

	// OnRenewed fires after each successful renewal; OnExpired fires if
	// the lease lapses without one.
	OnRenewed func(Lease)
	OnExpired func()
}

// NewClient creates a client for the given interface. The wildcard client
// port (:68) is bound only while an acquisition is in progress, so one host
// can run clients on several interfaces — a hot-switching mobile host keeps
// the old interface's lease renewing (via its address-bound socket) while
// acquiring on the new one.
func NewClient(ts *transport.Stack, ifc *stack.Iface, cfg ClientConfig) (*Client, error) {
	return &Client{
		loop: ts.Host().Loop(),
		ts:   ts,
		ifc:  ifc,
		hw:   ifc.Device().HW(),
		cfg:  cfg.withDefaults(),
	}, nil
}

// Lease returns the current lease, if bound.
func (c *Client) Lease() (Lease, bool) { return c.lease, c.acquired }

// Acquire runs the DISCOVER/OFFER/REQUEST/ACK exchange and calls done
// exactly once with the result.
func (c *Client) Acquire(done func(Lease, error)) error {
	if c.state != stateIdle && c.state != stateBound {
		return ErrBusy
	}
	sock, err := c.ts.UDP(ip.Unspecified, ClientPort, c.input)
	if err != nil {
		return err
	}
	c.sock = sock
	c.done = done
	c.xid = c.loop.Rand().Uint32()
	c.tries = 0
	c.state = stateDiscover
	c.span = trace.For(c.loop).StartSpan(c.ts.Host().Name(), kSpanAcquire)
	c.span.SetAttr("iface", c.ifc.Name())
	c.sendDiscover()
	return nil
}

// dropWildcardSock closes the acquisition-time socket.
func (c *Client) dropWildcardSock() {
	if c.sock != nil {
		c.sock.Close()
		c.sock = nil
	}
}

// Release relinquishes the lease and stops renewal.
func (c *Client) Release() {
	if !c.acquired {
		return
	}
	m := &Message{Type: Release, XID: c.xid, ClientHW: c.hw, ClientAddr: c.lease.Addr, ServerAddr: c.lease.Server}
	if c.renewSock != nil {
		c.renewSock.SendToVia(c.ifc, c.lease.Server, c.lease.Server, ServerPort, m.Marshal())
	}
	c.dropLease()
}

// Stop abandons any exchange in progress and stops renewal without
// notifying the server (the device is going away).
func (c *Client) Stop() {
	if c.span.Open() {
		c.span.SetAttr("result", "stopped")
		c.span.Done()
	}
	c.stopTimers()
	c.state = stateIdle
	c.dropWildcardSock()
	c.dropRenewSock()
	c.acquired = false
}

func (c *Client) dropLease() {
	c.stopTimers()
	c.acquired = false
	c.state = stateIdle
	c.dropRenewSock()
}

func (c *Client) dropRenewSock() {
	if c.renewSock != nil {
		c.renewSock.Close()
		c.renewSock = nil
	}
}

func (c *Client) stopTimers() {
	c.timer.Stop()
	c.renewT.Stop()
}

func (c *Client) fail(err error) {
	c.state = stateIdle
	c.dropWildcardSock()
	c.span.SetUint("tries", uint64(c.tries))
	c.span.Fail(err)
	if c.done != nil {
		done := c.done
		c.done = nil
		done(Lease{}, err)
	}
}

func (c *Client) sendDiscover() {
	if c.sock == nil {
		return
	}
	c.tries++
	if c.tries > c.cfg.MaxRetries {
		c.fail(ErrAcquireTimeout)
		return
	}
	m := &Message{Type: Discover, XID: c.xid, ClientHW: c.hw}
	c.sock.SendToVia(c.ifc, ip.Broadcast, ip.Broadcast, ServerPort, m.Marshal())
	c.timer = c.loop.Schedule(c.cfg.RetryInterval, func() {
		if c.state == stateDiscover {
			c.sendDiscover()
		}
	})
}

func (c *Client) sendRequest() {
	if c.sock == nil {
		return
	}
	c.tries++
	if c.tries > c.cfg.MaxRetries {
		c.fail(ErrAcquireTimeout)
		return
	}
	m := &Message{
		Type:          Request,
		XID:           c.xid,
		ClientHW:      c.hw,
		RequestedAddr: c.offer.YourAddr,
		ServerAddr:    c.offer.ServerAddr,
	}
	c.sock.SendToVia(c.ifc, ip.Broadcast, ip.Broadcast, ServerPort, m.Marshal())
	c.timer = c.loop.Schedule(c.cfg.RetryInterval, func() {
		if c.state == stateRequest {
			c.sendRequest()
		}
	})
}

func (c *Client) input(d transport.Datagram) {
	m, err := Unmarshal(d.Payload)
	if err != nil || m.ClientHW != c.hw || m.XID != c.xid {
		//lint:allow dropaccounting broadcast replies addressed to other clients are filtered here, not lost
		return
	}
	switch {
	case m.Type == Offer && c.state == stateDiscover:
		c.offer = m
		c.state = stateRequest
		c.tries = 0
		c.timer.Stop()
		c.sendRequest()
	case m.Type == Ack && c.state == stateRequest:
		c.timer.Stop()
		c.bind(m)
	case m.Type == Nak:
		c.timer.Stop()
		if c.state == stateRequest {
			c.fail(ErrNak)
		} else if c.state == stateBound {
			c.dropLease()
			if c.OnExpired != nil {
				c.OnExpired()
			}
		}
	case m.Type == Ack && c.state == stateBound:
		// Renewal acknowledged.
		c.lease.Duration = time.Duration(m.LeaseSecs) * time.Second
		c.lease.Acquired = c.loop.Now()
		c.scheduleRenewal()
		if c.OnRenewed != nil {
			c.OnRenewed(c.lease)
		}
	}
}

func (c *Client) bind(m *Message) {
	c.lease = Lease{
		Addr:     m.YourAddr,
		Prefix:   ip.Prefix{Addr: m.YourAddr, Bits: int(m.PrefixBits)}.Normalize(),
		Gateway:  m.Gateway,
		Server:   m.ServerAddr,
		Duration: time.Duration(m.LeaseSecs) * time.Second,
		Acquired: c.loop.Now(),
	}
	c.acquired = true
	c.state = stateBound
	c.span.SetAttr("addr", c.lease.Addr.String())
	c.span.SetAttr("server", c.lease.Server.String())
	c.span.Done()
	// Configure the interface so unicast (renewal) traffic to the leased
	// address is ARP-answered and accepted. Callers that stage-manage
	// configuration (the mobile host charging its configuration latency)
	// may SetAddr again; it is idempotent.
	c.ifc.SetAddr(c.lease.Addr, c.lease.Prefix)
	c.dropWildcardSock()
	c.dropRenewSock()
	if rs, err := c.ts.UDP(c.lease.Addr, ClientPort, c.input); err == nil {
		c.renewSock = rs
	}
	c.scheduleRenewal()
	if c.done != nil {
		done := c.done
		c.done = nil
		done(c.lease, nil)
	}
}

// scheduleRenewal arms T1, half the lease. The renewal timer runs T1, then
// T2 and then the expiry (RFC 2131 §4.4.5), one timer out at a time, so an
// acknowledged renewal stops one and arms the next T1.
func (c *Client) scheduleRenewal() {
	c.renewT.Stop()
	c.renewT = c.loop.Schedule(c.lease.Duration/2, c.renew)
}

// renew is T1: the client unicasts DHCPREQUEST to the server that granted
// the lease, ciaddr its address, and arms T2 at 0.875 of the lease.
func (c *Client) renew() {
	if c.state != stateBound || c.renewSock == nil {
		return
	}
	m := &Message{
		Type:       Request,
		XID:        c.xid,
		ClientHW:   c.hw,
		ClientAddr: c.lease.Addr,
		ServerAddr: c.lease.Server,
	}
	c.renewSock.SendToVia(c.ifc, c.lease.Server, c.lease.Server, ServerPort, m.Marshal())
	c.renewT = c.loop.Schedule(c.untilLeaseFraction(7, 8), c.rebind)
}

// rebind is T2, reached with the renewal unanswered: the client broadcasts
// DHCPREQUEST to any server, ciaddr its address and no server identifier,
// and arms the expiry at the lease's end.
func (c *Client) rebind() {
	if c.state != stateBound || c.renewSock == nil {
		return
	}
	m := &Message{Type: Request, XID: c.xid, ClientHW: c.hw, ClientAddr: c.lease.Addr}
	c.renewSock.SendToVia(c.ifc, ip.Broadcast, ip.Broadcast, ServerPort, m.Marshal())
	c.renewT = c.loop.Schedule(c.untilLeaseFraction(1, 1), c.expire)
}

// expire drops a lease that ran out with neither request answered.
func (c *Client) expire() {
	if c.state == stateBound && c.loop.Now() >= c.lease.Acquired.Add(c.lease.Duration) {
		c.dropLease()
		if c.OnExpired != nil {
			c.OnExpired()
		}
	}
}

// untilLeaseFraction is the time from now to num/den of the lease.
func (c *Client) untilLeaseFraction(num, den time.Duration) time.Duration {
	return c.lease.Acquired.Add(c.lease.Duration * num / den).Sub(c.loop.Now())
}
