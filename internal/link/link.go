// Package link implements the simulated link layer: MAC-style hardware
// addresses, Ethernet-like frames, network broadcast domains with
// per-medium latency/bandwidth/loss models, and network devices with an
// up/down state machine.
//
// The paper's testbed has three media — Ethernet (a Linksys PCMCIA card),
// a Metricom packet radio in Starmode driven by the STRIP driver, and the
// serial line carrying it — and its central measurements are about what
// happens while a mobile host switches devices. The two properties that
// matter there are modeled explicitly: a device that is down (or still
// coming up) silently drops frames, and bringing a device up takes real
// time (the dominant cost of a cold switch, per the paper's Figure 6).
package link

import (
	"errors"
	"fmt"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/trace"
)

// Carrier-transition span kinds, recorded as instants against the
// loop-associated tracer; actor is the device name.
const (
	kSpanLinkUp   = "link.up"
	kSpanLinkDown = "link.down"
)

// HWAddr is a 6-byte link-layer (MAC-style) hardware address.
type HWAddr [6]byte

// BroadcastHW is the all-ones broadcast hardware address.
var BroadcastHW = HWAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// String formats the address in colon-separated hex.
func (a HWAddr) String() string {
	const hex = "0123456789abcdef"
	var b [17]byte
	for i, v := range a {
		if i > 0 {
			b[3*i-1] = ':'
		}
		b[3*i], b[3*i+1] = hex[v>>4], hex[v&0xf]
	}
	return string(b[:])
}

// IsBroadcast reports whether a is the broadcast address.
func (a HWAddr) IsBroadcast() bool { return a == BroadcastHW }

type hwSeqKey struct{}

// nextHWAddr returns the next hardware address of loop's devices, numbered
// from 1 by a sequence attached to the loop (sim.Loop.Local). An address
// need be unique only within a broadcast domain, and a network's devices
// all live on its loop (a trunk between two loops carries only broadcast
// frames, Network.SetHandoff); the OUI bytes are arbitrary.
func nextHWAddr(loop *sim.Loop) HWAddr {
	seq, ok := loop.Local(hwSeqKey{}).(*uint32)
	if !ok {
		seq = new(uint32)
		loop.SetLocal(hwSeqKey{}, seq)
	}
	*seq++
	n := *seq
	return HWAddr{0x02, 0x4d, 0x4e, byte(n >> 16), byte(n >> 8), byte(n)}
}

// EtherType identifies the payload protocol of a frame.
type EtherType uint16

// EtherTypes used by the simulator.
const (
	EtherTypeIPv4 EtherType = 0x0800
	EtherTypeARP  EtherType = 0x0806
)

// Frame is a link-layer frame. On the receive side the Payload is a
// pooled buffer shared by every receiver of one transmission and valid
// only for the duration of the synchronous delivery call; receivers that
// keep payload bytes must copy them (the stack's ip.UnmarshalPooled copies
// them into the packet's own pooled buffer, arp decodes into a message on
// its stack). On the send side Send takes the payload, and the frame struct
// is the sender's for the call only: the network copies its fields and
// observers are shown a copy, so a sender builds it on its stack.
type Frame struct {
	Src, Dst HWAddr
	Type     EtherType
	Payload  []byte

	// Trace is the lifecycle trace ID of the IP packet the frame carries
	// (simulator metadata, not on the wire). Zero for un-traced frames
	// such as raw ARP requests.
	Trace uint64
}

// frameOverhead approximates Ethernet framing overhead (header + FCS) for
// serialization-delay purposes.
const frameOverhead = 18

// Len returns the frame's length on the wire in bytes.
func (f *Frame) Len() int { return frameOverhead + len(f.Payload) }

// State is a device's administrative state.
type State int

// Device states. A device in StateBringingUp has been asked to come up but
// is still initializing (hardware interaction, driver setup) and drops
// traffic until the bring-up delay elapses.
const (
	StateDown State = iota
	StateBringingUp
	StateUp
)

func (s State) String() string {
	switch s {
	case StateDown:
		return "down"
	case StateBringingUp:
		return "bringing-up"
	case StateUp:
		return "up"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// DeviceStats counts a device's traffic: the frames it sends and the frames
// addressed to it. A frame addressed to another device is none of its
// business and counts nowhere on it.
type DeviceStats struct {
	Sent         uint64 // frames handed to the network
	Received     uint64 // frames delivered to the receiver callback
	DroppedDown  uint64 // sends while not up, and unicast frames to it that arrived while it was not up
	DroppedNoNet uint64 // sends while detached from any network
	DroppedMTU   uint64 // sends exceeding the medium MTU
}

// Device errors.
var (
	ErrDeviceDown  = errors.New("link: device is down")
	ErrNoNetwork   = errors.New("link: device not attached to a network")
	ErrFrameTooBig = errors.New("link: frame exceeds medium MTU")
)

// Device is a simulated network interface. IP-level state (addresses,
// routes) lives in the host stack; the device deals only in frames.
type Device struct {
	name  string
	hw    HWAddr
	loop  *sim.Loop
	net   *Network
	state State

	// bringUpDelay and bringUpJitter model the time from "ifconfig up" to
	// the interface actually passing traffic. The paper attributes most of
	// its <1.25 s cold-switch loss window to this delay.
	bringUpDelay  time.Duration
	bringUpJitter time.Duration

	recv func(*Frame)
	// up lists the bring-ups whose timers are out, oldest first; a device
	// with none (a fleet's residents, or any device between bring-ups)
	// carries a nil head.
	up      *bringUp
	upSince sim.Time

	// seq is the device's attachment number on net (Network.attaches).
	seq uint64

	// Traffic counters are plain fields bumped on the data path; Stats and
	// the device's snapshot-time collector read them. Same-named devices
	// on different hosts aggregate at snapshot time.
	ctr    deviceCounters
	pktlog *metrics.PacketLog
}

type deviceCounters struct {
	sent, received   uint64
	txBytes, rxBytes uint64
	dropDown         uint64
	dropNoNet        uint64
	dropMTU          uint64
}

// NewDevice creates a device named name with a fresh hardware address.
// bringUpDelay (±jitter) is the simulated initialization time.
func NewDevice(loop *sim.Loop, name string, bringUpDelay, jitter time.Duration) *Device {
	d := &Device{
		name:          name,
		hw:            nextHWAddr(loop),
		loop:          loop,
		bringUpDelay:  bringUpDelay,
		bringUpJitter: jitter,
		pktlog:        metrics.PacketsFor(loop),
	}
	// The loop's one device collector publishes the counters (same rows and
	// sums as a collector per device, at a pointer per device — at fleet
	// scale every mobile host carries two devices).
	metrics.Add(metrics.For(loop), d, (*Device).collect)
	return d
}

// collect emits the device's rows.
func (d *Device) collect(c *metrics.Collection) {
	dev := metrics.L("dev", d.name)
	c.Counter("link.device.tx_packets", d.ctr.sent, dev)
	c.Counter("link.device.rx_packets", d.ctr.received, dev)
	c.Counter("link.device.tx_bytes", d.ctr.txBytes, dev)
	c.Counter("link.device.rx_bytes", d.ctr.rxBytes, dev)
	c.Counter("link.device.drop_down", d.ctr.dropDown, dev)
	c.Counter("link.device.drop_no_net", d.ctr.dropNoNet, dev)
	c.Counter("link.device.drop_mtu", d.ctr.dropMTU, dev)
}

// Name returns the device name, e.g. "eth0" or "strip0".
func (d *Device) Name() string { return d.name }

// HW returns the device hardware address.
func (d *Device) HW() HWAddr { return d.hw }

// State returns the administrative state.
func (d *Device) State() State { return d.state }

// IsUp reports whether the device passes traffic.
func (d *Device) IsUp() bool { return d.state == StateUp }

// Network returns the attached broadcast domain, or nil.
func (d *Device) Network() *Network { return d.net }

// Stats returns a snapshot of the device counters.
func (d *Device) Stats() DeviceStats {
	return DeviceStats{
		Sent:         d.ctr.sent,
		Received:     d.ctr.received,
		DroppedDown:  d.ctr.dropDown,
		DroppedNoNet: d.ctr.dropNoNet,
		DroppedMTU:   d.ctr.dropMTU,
	}
}

// SetReceiver installs the host-stack callback for delivered frames.
func (d *Device) SetReceiver(fn func(*Frame)) { d.recv = fn }

// Attach connects the device to a broadcast domain of its own loop, where
// its hardware address is unique. Attaching does not bring the device up.
func (d *Device) Attach(n *Network) {
	if n.loop != d.loop {
		panic("link: a device attaches only to a network of its own loop")
	}
	if d.net != nil {
		d.Detach()
	}
	d.net = n
	n.add(d)
}

// Detach disconnects the device from its network, e.g. when carried out of
// radio coverage.
func (d *Device) Detach() {
	if d.net == nil {
		return
	}
	d.net.remove(d)
	d.net = nil
}

// BringUp starts the device's initialization and invokes done (if non-nil)
// once the device is up and passing traffic. Calling BringUp on a device
// that is already up invokes done immediately; on one that is coming up,
// done runs when it is up — when the earliest request's delay has run — so
// every BringUp not followed by a BringDown reports exactly once, no later
// than the delay it was charged. The returned duration is that delay.
func (d *Device) BringUp(done func()) time.Duration {
	if d.state == StateUp {
		if done != nil {
			done()
		}
		return 0
	}
	delay := d.loop.Jitter(d.bringUpDelay, d.bringUpJitter)
	d.state = StateBringingUp
	r := sim.RecordsOf[bringUp](d.loop).Take()
	if r == nil {
		r = new(bringUp)
		r.fire = r.timer
	}
	r.d, r.live, r.done = d, true, done
	at := &d.up
	for *at != nil {
		at = &(*at).next
	}
	*at = r
	d.loop.Schedule(delay, r.fire)
	return delay
}

// bringUp is one BringUp whose timer has not fired, on its device's list in
// the order they were scheduled, with its timer's callback bound once. The
// records come from the loop's free list (sim.RecordsOf), so asking a device
// up allocates nothing once the loop has as many as were ever waiting at
// once. BringDown clears live (the request is aborted), and so does the
// device coming up (the request has been answered); either way the record
// stays until its own timer collects it, because a timer is never stopped:
// the events a run executes are part of what it exports.
type bringUp struct {
	d    *Device
	live bool
	done func()
	next *bringUp
	fire func() // r.timer
}

// timer is the record's bring-up timer. If the record is still live the
// device comes up, and every request waiting on it — this one, and any made
// while it was coming up whose own timer is still out — is told so, oldest
// first. Then the record leaves its device's list for the loop's.
func (r *bringUp) timer() {
	d := r.d
	if r.live {
		d.state = StateUp
		if d.net != nil {
			d.net.mark(d, true)
		}
		d.upSince = d.loop.Now()
		d.markLinkChange(kSpanLinkUp)
		// A done may take the device down and ask it up again; that request
		// is appended behind the n that were waiting and is not one of them.
		n := 0
		for w := d.up; w != nil; w = w.next {
			n++
		}
		for w := d.up; n > 0; w, n = w.next, n-1 {
			if w.live {
				done := w.done
				w.live, w.done = false, nil
				if done != nil {
					done()
				}
			}
		}
	}
	at := &d.up
	for *at != r {
		at = &(*at).next
	}
	*at = r.next
	*r = bringUp{fire: r.fire}
	sim.RecordsOf[bringUp](d.loop).Put(r)
}

// BringDown takes the device down immediately. Pending bring-ups are
// cancelled; frames in flight toward this device will be dropped on
// arrival.
func (d *Device) BringDown() {
	if d.state == StateDown {
		return
	}
	for w := d.up; w != nil; w = w.next {
		w.live, w.done = false, nil
	}
	if d.state == StateUp && d.net != nil {
		d.net.mark(d, false)
	}
	d.state = StateDown
	d.markLinkChange(kSpanLinkDown)
}

// markLinkChange records an instant span for a carrier transition in the
// loop-associated tracer — the "link change" that roots every handoff's
// causal chain. No-op when the loop has no tracer (scale runs).
func (d *Device) markLinkChange(kind string) {
	t := trace.For(d.loop)
	if t == nil {
		return
	}
	sp := t.StartChild(nil, d.name, kind)
	if d.net != nil {
		sp.SetAttr("net", d.net.Name())
	}
	sp.Done()
}

// UpSince returns when the device last transitioned to up.
func (d *Device) UpSince() sim.Time { return d.upSince }

// Send transmits a frame with this device's hardware source address. It
// takes the frame's payload, a bufpool buffer the caller owns: the flight
// that carries the frame keeps it until the last receiver is done, and a
// send that makes no flight puts it back before returning. The caller does
// not touch the payload again; the frame struct itself stays the caller's.
//
//mnet:ownership takes f
func (d *Device) Send(f *Frame) error {
	f.Src = d.hw
	if d.state != StateUp {
		d.ctr.dropDown++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "device down")
		bufpool.For(d.loop).Put(f.Payload)
		return ErrDeviceDown
	}
	if d.net == nil {
		d.ctr.dropNoNet++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "no network")
		bufpool.For(d.loop).Put(f.Payload)
		return ErrNoNetwork
	}
	if len(f.Payload) > d.net.medium.MTU {
		d.ctr.dropMTU++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "exceeds MTU")
		bufpool.For(d.loop).Put(f.Payload)
		return ErrFrameTooBig
	}
	d.ctr.sent++
	d.ctr.txBytes += uint64(f.Len())
	if d.pktlog != nil { // build no detail operands for a device without a log
		d.pktlog.RecordDetail(f.Trace, d.name, "link.tx", metrics.HWDetail(metrics.DetailLinkDst, f.Dst))
	}
	d.net.transmit(d, f)
	return nil
}

// deliver hands a frame arriving from the network to the device. A frame
// addressed to another device is none of its business. A device that is not
// up loses a frame only if the frame was addressed to it alone: a broadcast
// missed while down is nobody's loss.
func (d *Device) deliver(f *Frame) {
	switch {
	case d.state == StateUp && (f.Dst.IsBroadcast() || f.Dst == d.hw):
		d.ctr.received++
		d.ctr.rxBytes += uint64(f.Len())
		if d.pktlog != nil {
			d.pktlog.RecordDetail(f.Trace, d.name, "link.rx", metrics.HWDetail(metrics.DetailLinkSrc, f.Src))
		}
		if d.recv != nil {
			d.recv(f)
		}
	case f.Dst == d.hw:
		d.ctr.dropDown++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "device down on rx")
	}
}
