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
	"slices"
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

// hwSeq hands out distinct hardware addresses. Uniqueness per simulation is
// all that matters; the OUI byte is arbitrary.
//
//lint:allow nosharedstate written only during topology construction, which is single-threaded and completes before any ShardSet starts its workers
var hwSeq uint32

// NextHWAddr returns a process-unique hardware address.
func NextHWAddr() HWAddr {
	hwSeq++
	return HWAddr{0x02, 0x4d, 0x4e, byte(hwSeq >> 16), byte(hwSeq >> 8), byte(hwSeq)}
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

// DeviceStats counts a device's traffic.
type DeviceStats struct {
	Sent          uint64 // frames handed to the network
	Received      uint64 // frames delivered to the receiver callback
	DroppedDown   uint64 // frames dropped because the device was not up
	DroppedNoNet  uint64 // sends while detached from any network
	DroppedMTU    uint64 // sends exceeding the medium MTU
	DroppedFilter uint64 // received frames not addressed to us
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

	recv     func(*Frame)
	onChange []func()
	// up is made by the first BringUp that has to wait, so a device that is
	// never raised (a fleet's residents) carries a nil pointer.
	up      *bringUps
	upSince sim.Time

	// fastSeen is net.fastLanded as of the last settle; fastOwn counts the
	// fast flights landed since that this device sent, received or was
	// walked for. The difference is owed to dropFilter or dropDown.
	fastSeen, fastOwn uint64
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
	dropFilter       uint64
}

// NewDevice creates a device named name with a fresh hardware address.
// bringUpDelay (±jitter) is the simulated initialization time.
func NewDevice(loop *sim.Loop, name string, bringUpDelay, jitter time.Duration) *Device {
	d := &Device{
		name:          name,
		hw:            NextHWAddr(),
		loop:          loop,
		bringUpDelay:  bringUpDelay,
		bringUpJitter: jitter,
		pktlog:        metrics.PacketsFor(loop),
	}
	// One snapshot-time collector per device publishes the counters (same
	// rows and sums as registering eight handles, at an eighth of the
	// registry footprint — at fleet scale every mobile host carries two
	// devices).
	metrics.For(loop).Collect(func(c *metrics.Collection) {
		d.settle()
		dev := metrics.L("dev", d.name)
		c.Counter("link.device.tx_packets", d.ctr.sent, dev)
		c.Counter("link.device.rx_packets", d.ctr.received, dev)
		c.Counter("link.device.tx_bytes", d.ctr.txBytes, dev)
		c.Counter("link.device.rx_bytes", d.ctr.rxBytes, dev)
		c.Counter("link.device.drop_down", d.ctr.dropDown, dev)
		c.Counter("link.device.drop_no_net", d.ctr.dropNoNet, dev)
		c.Counter("link.device.drop_mtu", d.ctr.dropMTU, dev)
		c.Counter("link.device.drop_filter", d.ctr.dropFilter, dev)
	})
	return d
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
	d.settle()
	return DeviceStats{
		Sent:          d.ctr.sent,
		Received:      d.ctr.received,
		DroppedDown:   d.ctr.dropDown,
		DroppedNoNet:  d.ctr.dropNoNet,
		DroppedMTU:    d.ctr.dropMTU,
		DroppedFilter: d.ctr.dropFilter,
	}
}

// SetReceiver installs the host-stack callback for delivered frames.
func (d *Device) SetReceiver(fn func(*Frame)) { d.recv = fn }

// OnChange registers a callback invoked whenever the device's
// reachability changes: bring-up completion, bring-down, attach, detach.
// The host stack uses it to invalidate cached routing decisions that
// depend on Iface.Up().
func (d *Device) OnChange(fn func()) { d.onChange = append(d.onChange, fn) }

func (d *Device) notifyChange() {
	for _, fn := range d.onChange {
		fn()
	}
}

// settle folds the fast flights that landed on the device's network since
// the last settle, less the ones the device sent or was visited for, into the
// drop counter the walk would have bumped: dropFilter if the device is up (a
// unicast bystander), dropDown if not (a unicast bystander, or a broadcast
// receiver the flight skipped). It must run before the state changes, before
// the device detaches and before the counters are read.
func (d *Device) settle() {
	n := d.net
	if n == nil {
		return
	}
	if n.landing != nil {
		n.finishWalk()
	}
	owed := n.fastLanded - d.fastSeen - d.fastOwn
	d.fastSeen, d.fastOwn = n.fastLanded, 0
	if d.state == StateUp {
		d.ctr.dropFilter += owed
	} else {
		d.ctr.dropDown += owed
	}
}

// Attach connects the device to a broadcast domain. Attaching does not
// bring the device up.
func (d *Device) Attach(n *Network) {
	if d.net != nil {
		d.Detach()
	}
	d.net = n
	n.add(d)
	d.notifyChange()
}

// Detach disconnects the device from its network, e.g. when carried out of
// radio coverage.
func (d *Device) Detach() {
	if d.net == nil {
		return
	}
	d.net.remove(d) // settles d first
	d.net = nil
	d.notifyChange()
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
	if d.up == nil {
		d.up = &bringUps{fire: d.upTimer}
	}
	d.up.wait = append(d.up.wait, bringUp{at: d.loop.Now().Add(delay), live: true, done: done})
	d.loop.Schedule(delay, d.up.fire)
	return delay
}

// bringUps is a device's bring-ups in progress: one record per timer still
// in the loop, in the order they were scheduled, and the timers' callback,
// bound once — so asking a device up allocates nothing once wait has grown.
type bringUps struct {
	wait []bringUp
	fire func() // d.upTimer
}

// bringUp is one BringUp whose timer has not fired. BringDown clears live
// (the request is aborted), and so does the device coming up (the request
// has been answered); either way the record stays until its own timer
// collects it, because a timer is never stopped: the events a run executes
// are part of what it exports.
type bringUp struct {
	at   sim.Time
	live bool
	done func()
}

// upTimer is every bring-up timer's callback. The loop fires equal times in
// scheduling order, which is wait's order, so the first record due now is
// this timer's. If it is still live the device comes up, and every request
// waiting on it — this one, and any made while it was coming up whose own
// timer is still out — is told so, oldest first.
func (d *Device) upTimer() {
	u, now, i := d.up, d.loop.Now(), 0
	for u.wait[i].at != now {
		i++
	}
	if u.wait[i].live {
		d.settle()
		d.state = StateUp
		if d.net != nil {
			d.net.mark(d, true)
		}
		d.upSince = now
		d.markLinkChange(kSpanLinkUp)
		d.notifyChange()
		// A done may take the device down and ask it up again; that request
		// is appended behind the n that were waiting and is not one of them.
		for j, n := 0, len(u.wait); j < n; j++ {
			if w := &u.wait[j]; w.live {
				done := w.done
				w.live, w.done = false, nil
				if done != nil {
					done()
				}
			}
		}
	}
	u.wait = slices.Delete(u.wait, i, i+1)
}

// BringDown takes the device down immediately. Pending bring-ups are
// cancelled; frames in flight toward this device will be dropped on
// arrival.
func (d *Device) BringDown() {
	if d.state == StateDown {
		return
	}
	d.settle()
	if d.up != nil {
		for i := range d.up.wait {
			d.up.wait[i].live, d.up.wait[i].done = false, nil
		}
	}
	if d.state == StateUp && d.net != nil {
		d.net.mark(d, false)
	}
	d.state = StateDown
	d.markLinkChange(kSpanLinkDown)
	d.notifyChange()
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
		bufpool.Put(f.Payload)
		return ErrDeviceDown
	}
	if d.net == nil {
		d.ctr.dropNoNet++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "no network")
		bufpool.Put(f.Payload)
		return ErrNoNetwork
	}
	if len(f.Payload) > d.net.medium.MTU {
		d.ctr.dropMTU++
		d.pktlog.Record(f.Trace, d.name, "link.drop", "exceeds MTU")
		bufpool.Put(f.Payload)
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

// deliver hands a frame arriving from the network to the device, applying
// the destination filter and up/down state. A down device counts every frame
// as a down drop, but logs one only for a frame it would have accepted: a
// frame addressed to another device is not its loss.
func (d *Device) deliver(f *Frame) {
	accept := f.Dst.IsBroadcast() || f.Dst == d.hw
	if d.state != StateUp {
		d.ctr.dropDown++
		if accept {
			d.pktlog.Record(f.Trace, d.name, "link.drop", "device down on rx")
		}
		return
	}
	if !accept {
		d.ctr.dropFilter++
		return
	}
	d.ctr.received++
	d.ctr.rxBytes += uint64(f.Len())
	if d.pktlog != nil {
		d.pktlog.RecordDetail(f.Trace, d.name, "link.rx", metrics.HWDetail(metrics.DetailLinkSrc, f.Src))
	}
	if d.recv != nil {
		d.recv(f)
	}
}
