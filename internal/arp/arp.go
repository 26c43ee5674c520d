// Package arp implements the Address Resolution Protocol over the
// simulated link layer: the 28-byte Ethernet/IPv4 wire format, a per-device
// cache with expiry and retry, pending-packet queues, gratuitous ARP, and
// published (proxy) entries.
//
// Proxy and gratuitous ARP are not optional extras here: they are the
// mechanism by which a MosquitoNet home agent intercepts packets addressed
// to a mobile host that has left home. On registration the home agent
// publishes the mobile host's home address (answering ARP requests for it
// with the agent's own hardware address) and broadcasts a gratuitous ARP to
// void stale entries in neighbors' caches.
package arp

import (
	"encoding/binary"
	"errors"
	"sort"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// Op is an ARP operation code.
type Op uint16

// ARP operations.
const (
	OpRequest Op = 1
	OpReply   Op = 2
)

// MessageLen is the length of an Ethernet/IPv4 ARP message.
const MessageLen = 28

// Message is a parsed ARP message.
type Message struct {
	Op       Op
	SenderHW link.HWAddr
	SenderIP ip.Addr
	TargetHW link.HWAddr
	TargetIP ip.Addr
}

// IsGratuitous reports whether the message is a gratuitous announcement
// (sender announcing its own binding: sender IP equals target IP).
func (m *Message) IsGratuitous() bool { return m.SenderIP == m.TargetIP }

// Marshal serializes the message in the standard wire format
// (htype=1 Ethernet, ptype=0x0800 IPv4, hlen=6, plen=4).
func (m *Message) Marshal() []byte {
	b := make([]byte, MessageLen)
	m.put(b)
	return b
}

// put is Marshal into MessageLen bytes the caller holds.
func (m *Message) put(b []byte) {
	binary.BigEndian.PutUint16(b[0:], 1)      // htype: Ethernet
	binary.BigEndian.PutUint16(b[2:], 0x0800) // ptype: IPv4
	b[4] = 6                                  // hlen
	b[5] = 4                                  // plen
	binary.BigEndian.PutUint16(b[6:], uint16(m.Op))
	copy(b[8:14], m.SenderHW[:])
	copy(b[14:18], m.SenderIP[:])
	copy(b[18:24], m.TargetHW[:])
	copy(b[24:28], m.TargetIP[:])
}

// Unmarshal errors.
var (
	ErrShortMessage = errors.New("arp: truncated message")
	ErrBadFormat    = errors.New("arp: unsupported hardware or protocol type")
)

// Unmarshal parses an ARP message, validating the type/length fields.
func Unmarshal(b []byte) (*Message, error) {
	m := new(Message)
	if err := m.unmarshal(b); err != nil {
		return nil, err
	}
	return m, nil
}

// unmarshal is Unmarshal into a message the caller holds. HandleFrame
// decodes into its own frame: on a broadcast segment every attached device
// parses every request, and none of them keeps the message.
func (m *Message) unmarshal(b []byte) error {
	if len(b) < MessageLen {
		return ErrShortMessage
	}
	if binary.BigEndian.Uint16(b[0:]) != 1 || binary.BigEndian.Uint16(b[2:]) != 0x0800 ||
		b[4] != 6 || b[5] != 4 {
		return ErrBadFormat
	}
	m.Op = Op(binary.BigEndian.Uint16(b[6:]))
	copy(m.SenderHW[:], b[8:14])
	copy(m.SenderIP[:], b[14:18])
	copy(m.TargetHW[:], b[18:24])
	copy(m.TargetIP[:], b[24:28])
	return nil
}

// Config tunes cache behaviour. Zero values select the defaults.
type Config struct {
	EntryTTL       time.Duration // lifetime of a resolved entry (default 10m)
	RequestTimeout time.Duration // retransmit interval for requests (default 1s)
	MaxRetries     int           // requests sent before giving up (default 3)
	MaxPending     int           // packets queued per unresolved address (default 32)
}

func (c Config) withDefaults() Config {
	if c.EntryTTL == 0 {
		c.EntryTTL = 10 * time.Minute
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = time.Second
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	if c.MaxPending == 0 {
		c.MaxPending = 32
	}
	return c
}

// Stats counts cache activity.
type Stats struct {
	RequestsSent    uint64
	RepliesSent     uint64
	ProxyReplies    uint64 // replies sent on behalf of published addresses
	ResolveFailures uint64 // addresses given up on after retries
	PacketsDropped  uint64 // queued packets dropped (failure or overflow)
	GratuitousSent  uint64
	DropMalformed   uint64 // received ARP frames that failed to parse
}

type entry struct {
	addr    ip.Addr
	hw      link.HWAddr
	expires sim.Time
}

// staticExpiry marks an entry that never ages out (AddStatic).
const staticExpiry = sim.Time(1<<62 - 1)

// queued is one packet waiting for address resolution: the marshaled IP
// payload plus its lifecycle trace ID, so the trace survives the queue.
type queued struct {
	payload []byte
	trace   uint64
}

// retryLaneGranularity buckets ARP retransmit timers: at 10ms against a
// default 1s timeout the rounding is negligible, and on a busy segment the
// many per-request timers (almost all of which are cancelled by a prompt
// reply) share heap events instead of each costing one.
const retryLaneGranularity = 10 * time.Millisecond

// pending is one address being resolved: the packets waiting for it, the
// requests sent so far and the retry timer. Records come from the loop's
// free list (sim.RecordsOf) and go back to it once a reply or the final
// timeout has flushed or dropped the queue, so a cache with nothing to
// resolve holds no record. While it resolves a record is on its cache's
// pending list, linked through next. It keeps the queue's array and the
// bound retry on the free list; neither ending leaves a timer out, so nothing
// points at a free record. The queue starts in first: most resolutions hold
// one packet, so a record and its bound retry are all a miss that finds the
// loop's list empty allocates.
type pending struct {
	c        *Cache
	dst      ip.Addr
	tries    int32
	payloads []queued
	timer    sim.LaneTimer
	retry    func() // p.timeout, bound once
	next     *pending
	first    [1]queued
}

// Cache is a per-device ARP resolver and responder.
type Cache struct {
	loop *sim.Loop
	dev  *link.Device
	cfg  Config

	// localAddrs reports the device's own IP addresses; the cache answers
	// requests for any of them.
	localAddrs func() []ip.Addr

	// entries is the resolution table packed into a slice sorted by
	// address and binary-searched: a fleet host's cache holds a handful
	// of neighbors and a router's a few hundred, and packing them avoids
	// a map bucket plus per-entry overhead for every neighbor on every
	// device in the fleet. published is packed the same way. pend lists
	// the addresses being resolved, rarely more than one at a time, linked
	// through pending.next; the records come from the loop and go back to
	// it, so a resolution costs its record and nothing more.
	entries   []entry
	pend      *pending
	published []ip.Addr
	stats     Stats
}

// New creates a cache resolving on dev. localAddrs is consulted live on
// every request so address changes (the whole point of mobile IP) take
// effect immediately.
func New(loop *sim.Loop, dev *link.Device, cfg Config, localAddrs func() []ip.Addr) *Cache {
	return &Cache{
		loop:       loop,
		dev:        dev,
		cfg:        cfg.withDefaults(),
		localAddrs: localAddrs,
	}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// addrOrd orders addresses numerically for the packed tables.
func addrOrd(a ip.Addr) uint32 { return binary.BigEndian.Uint32(a[:]) }

// findEntry binary-searches the packed table: the index where a is (or
// would be inserted), and whether it is present.
func (c *Cache) findEntry(a ip.Addr) (int, bool) {
	i := sort.Search(len(c.entries), func(i int) bool { return addrOrd(c.entries[i].addr) >= addrOrd(a) })
	return i, i < len(c.entries) && c.entries[i].addr == a
}

// setEntry inserts or updates the packed entry for a.
func (c *Cache) setEntry(a ip.Addr, hw link.HWAddr, expires sim.Time) {
	i, ok := c.findEntry(a)
	if ok {
		c.entries[i].hw, c.entries[i].expires = hw, expires
		return
	}
	c.entries = append(c.entries, entry{})
	copy(c.entries[i+1:], c.entries[i:])
	c.entries[i] = entry{addr: a, hw: hw, expires: expires}
}

// Lookup returns the cached hardware address for a, if fresh.
func (c *Cache) Lookup(a ip.Addr) (link.HWAddr, bool) {
	i, ok := c.findEntry(a)
	if !ok || c.loop.Now() > c.entries[i].expires {
		return link.HWAddr{}, false
	}
	return c.entries[i].hw, true
}

// AddStatic installs a non-expiring entry. The home agent uses this to
// keep a mapping for a registered mobile host in its own cache.
func (c *Cache) AddStatic(a ip.Addr, hw link.HWAddr) {
	c.setEntry(a, hw, staticExpiry)
}

// Delete removes any entry for a.
func (c *Cache) Delete(a ip.Addr) {
	if i, ok := c.findEntry(a); ok {
		c.entries = append(c.entries[:i], c.entries[i+1:]...)
	}
}

// Publish makes the cache answer requests for a with this device's own
// hardware address — proxy ARP, the home agent's interception mechanism.
func (c *Cache) Publish(a ip.Addr) {
	i := sort.Search(len(c.published), func(i int) bool { return addrOrd(c.published[i]) >= addrOrd(a) })
	if i < len(c.published) && c.published[i] == a {
		return
	}
	c.published = append(c.published, ip.Addr{})
	copy(c.published[i+1:], c.published[i:])
	c.published[i] = a
}

// Unpublish stops proxying for a.
func (c *Cache) Unpublish(a ip.Addr) {
	i := sort.Search(len(c.published), func(i int) bool { return addrOrd(c.published[i]) >= addrOrd(a) })
	if i < len(c.published) && c.published[i] == a {
		c.published = append(c.published[:i], c.published[i+1:]...)
	}
}

// Published reports whether a is currently proxied.
func (c *Cache) Published(a ip.Addr) bool {
	i := sort.Search(len(c.published), func(i int) bool { return addrOrd(c.published[i]) >= addrOrd(a) })
	return i < len(c.published) && c.published[i] == a
}

// SendIP transmits an IPv4 payload to dst, resolving its hardware address
// first if necessary. Packets to unresolved addresses are queued (up to
// MaxPending) and flushed when the reply arrives; if resolution fails after
// MaxRetries requests, they are dropped. trace is the packet's lifecycle
// trace ID (zero if untraced), carried onto the resulting frame.
//
// SendIP takes ownership of payload: once it returns, the buffer belongs to
// the link layer (the flight that carries it puts it back when it lands) or
// to the resolution queue, or has been recycled into bufpool, so callers
// must not retain it.
//
//mnet:ownership takes payload
func (c *Cache) SendIP(dst ip.Addr, payload []byte, trace uint64) {
	if hw, ok := c.Lookup(dst); ok {
		c.sendIPv4(hw, payload, trace)
		return
	}
	p := c.findPending(dst)
	if p == nil {
		p = sim.RecordsOf[pending](c.loop).Take()
		if p == nil {
			p = new(pending)
			p.retry, p.payloads = p.timeout, p.first[:0]
		}
		p.c, p.dst, p.next, c.pend = c, dst, c.pend, p
		c.sendRequest(p)
	}
	if len(p.payloads) >= c.cfg.MaxPending {
		c.stats.PacketsDropped++
		bufpool.For(c.loop).Put(payload)
		return
	}
	p.payloads = append(p.payloads, queued{payload: payload, trace: trace})
}

// SendBroadcastIP transmits an IPv4 payload to the link broadcast address.
// Like SendIP it takes ownership of payload.
//
//mnet:ownership takes payload
func (c *Cache) SendBroadcastIP(payload []byte, trace uint64) {
	c.sendIPv4(link.BroadcastHW, payload, trace)
}

// sendIPv4 puts one IPv4 payload on the wire; Send takes it. The frame
// never leaves this stack (the link layer shows observers a copy of it).
//
//mnet:ownership takes payload
func (c *Cache) sendIPv4(hw link.HWAddr, payload []byte, trace uint64) {
	c.dev.Send(&link.Frame{Dst: hw, Type: link.EtherTypeIPv4, Payload: payload, Trace: trace})
}

func (c *Cache) sendRequest(p *pending) {
	p.tries++
	c.stats.RequestsSent++
	c.send(link.BroadcastHW, Message{Op: OpRequest, SenderHW: c.dev.HW(), SenderIP: c.senderIP(), TargetIP: p.dst})
	p.timer = c.loop.Lane(retryLaneGranularity).Schedule(c.cfg.RequestTimeout, p.retry)
}

// timeout is the retry timer: ask again, or give up and drop the queue.
func (p *pending) timeout() {
	c := p.c
	if int(p.tries) < c.cfg.MaxRetries {
		c.sendRequest(p)
		return
	}
	c.stats.ResolveFailures++
	c.stats.PacketsDropped += uint64(len(p.payloads))
	bufs := bufpool.For(c.loop)
	for _, q := range p.payloads {
		bufs.Put(q.payload)
	}
	c.unlink(p)
	c.release(p)
}

// findPending returns the resolution of dst in flight, or nil.
func (c *Cache) findPending(dst ip.Addr) *pending {
	for p := c.pend; p != nil; p = p.next {
		if p.dst == dst {
			return p
		}
	}
	return nil
}

// unlink takes a finished resolution off the pending list.
func (c *Cache) unlink(p *pending) {
	for at := &c.pend; *at != nil; at = &(*at).next {
		if *at == p {
			*at = p.next
			return
		}
	}
}

// release puts an unlinked record back on the loop's free list, its queue
// flushed or dropped.
func (c *Cache) release(p *pending) {
	clear(p.payloads)
	p.c, p.next, p.payloads, p.tries, p.timer = nil, nil, p.payloads[:0], 0, sim.LaneTimer{}
	sim.RecordsOf[pending](c.loop).Put(p)
}

// send puts one ARP message on the wire, marshaled into a pooled buffer
// that Send takes, like sendIPv4's payload.
func (c *Cache) send(dst link.HWAddr, m Message) {
	b := bufpool.For(c.loop).Get(MessageLen)
	m.put(b)
	c.dev.Send(&link.Frame{Dst: dst, Type: link.EtherTypeARP, Payload: b})
}

// senderIP picks the address to advertise in our requests.
func (c *Cache) senderIP() ip.Addr {
	if addrs := c.localAddrs(); len(addrs) > 0 {
		return addrs[0]
	}
	return ip.Unspecified
}

// Gratuitous broadcasts a gratuitous ARP binding a to hw. The home agent
// calls this with the mobile host's home address and the agent's own
// hardware address to void stale neighbor cache entries; a returning
// mobile host calls it with its own.
func (c *Cache) Gratuitous(a ip.Addr, hw link.HWAddr) {
	c.stats.GratuitousSent++
	c.send(link.BroadcastHW, Message{Op: OpRequest, SenderHW: hw, SenderIP: a, TargetIP: a})
}

// HandleFrame processes a received ARP frame (requests and replies),
// updating the cache and answering requests for local or published
// addresses. Malformed messages are dropped silently, as on a real link.
func (c *Cache) HandleFrame(f *link.Frame) {
	var m Message
	if err := m.unmarshal(f.Payload); err != nil {
		c.stats.DropMalformed++
		return
	}
	// Merge/update (RFC 826 flavored): refresh an existing mapping for the
	// sender unconditionally — this is how gratuitous ARP voids stale
	// entries — and create one if the message is addressed to us.
	isLocal := c.isLocal(m.TargetIP)
	if !m.SenderIP.IsUnspecified() {
		if _, have := c.findEntry(m.SenderIP); have || isLocal {
			c.learn(m.SenderIP, m.SenderHW)
		}
	}
	// Flush any packets waiting on the sender's address.
	if p := c.findPending(m.SenderIP); p != nil {
		p.timer.Stop()
		c.unlink(p)
		c.learn(m.SenderIP, m.SenderHW)
		for _, q := range p.payloads {
			c.sendIPv4(m.SenderHW, q.payload, q.trace)
		}
		c.release(p)
	}
	if m.Op != OpRequest || m.IsGratuitous() {
		//lint:allow dropaccounting frame fully consumed by the cache merge above; replies are only owed to requests
		return
	}
	switch {
	case isLocal:
		c.reply(&m)
		c.stats.RepliesSent++
	case c.Published(m.TargetIP):
		c.reply(&m)
		c.stats.ProxyReplies++
	}
}

func (c *Cache) isLocal(a ip.Addr) bool {
	for _, l := range c.localAddrs() {
		if l == a {
			return true
		}
	}
	return false
}

func (c *Cache) learn(a ip.Addr, hw link.HWAddr) {
	if i, ok := c.findEntry(a); ok && c.entries[i].expires == staticExpiry {
		c.entries[i].hw = hw // static entries keep their lifetime but track moves
		return
	}
	c.setEntry(a, hw, c.loop.Now().Add(c.cfg.EntryTTL))
}

func (c *Cache) reply(req *Message) {
	c.send(req.SenderHW, Message{
		Op:       OpReply,
		SenderHW: c.dev.HW(),
		SenderIP: req.TargetIP,
		TargetHW: req.SenderHW,
		TargetIP: req.SenderIP,
	})
}
