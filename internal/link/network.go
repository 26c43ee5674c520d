package link

import (
	"cmp"
	"math/bits"
	"slices"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/metrics"
	"mosquitonet/internal/sim"
)

// Medium describes the physical characteristics of a broadcast domain.
type Medium struct {
	Name string

	// Latency is the one-way propagation plus link-level processing delay,
	// varied by ±LatencyJitter per frame.
	Latency       time.Duration
	LatencyJitter time.Duration

	// BitRate is the serialization rate in bits per second; zero means
	// serialization is free. The Metricom radio's effective 30-40 Kbit/s
	// is modeled here.
	BitRate int64

	// LossProb is the probability an individual receiver misses a frame.
	// Wired media use zero; radio uses a small nonzero rate.
	LossProb float64

	// MTU is the largest frame payload in bytes.
	MTU int
}

// serializationDelay returns the time to clock a frame of n bytes onto the
// medium.
func (m Medium) serializationDelay(n int) time.Duration {
	if m.BitRate <= 0 {
		return 0
	}
	return time.Duration(int64(n) * 8 * int64(time.Second) / m.BitRate)
}

// MinLatency returns the smallest possible arrival delta the medium can
// produce: propagation latency at the low end of its jitter range.
// Serialization only adds delay, so this lower-bounds every delivery and
// is the safe conservative lookahead for a shard boundary cut across this
// medium (sim.ShardSet).
func (m Medium) MinLatency() time.Duration {
	return m.Latency - m.LatencyJitter
}

// Ethernet returns a 10 Mbit/s wired Ethernet medium, matching the paper's
// PCMCIA Ethernet: sub-millisecond latency, effectively lossless.
func Ethernet() Medium {
	return Medium{
		Name:          "ethernet",
		Latency:       150 * time.Microsecond,
		LatencyJitter: 30 * time.Microsecond,
		BitRate:       10_000_000,
		LossProb:      0,
		MTU:           1500,
	}
}

// Radio returns a Metricom Starmode packet-radio medium as characterized in
// Section 4 of the paper: round-trip times of 200-250 ms through the radio
// interface and 30-40 Kbit/s effective throughput (nominal 100 Kbit/s),
// with occasional frame loss from the radio itself.
func Radio() Medium {
	return Medium{
		Name:          "radio",
		Latency:       100 * time.Millisecond, // one-way, so RTT ~200-250ms with jitter+serialization
		LatencyJitter: 10 * time.Millisecond,
		BitRate:       35_000,
		LossProb:      0.01,
		MTU:           1100, // STRIP's radio packet limit
	}
}

// Serial returns a 115.2 Kbit/s point-to-point serial medium, the paper's
// Handbook-to-radio link.
func Serial() Medium {
	return Medium{
		Name:          "serial",
		Latency:       time.Millisecond,
		LatencyJitter: 100 * time.Microsecond,
		BitRate:       115_200,
		MTU:           1500,
	}
}

// Backbone returns a campus-backbone trunk medium: a routed 100 Mbit/s
// point-to-point span with milliseconds of propagation delay. Its
// MinLatency of 1.9ms is what makes it suitable as a shard-boundary cut —
// the lookahead it grants dwarfs the per-epoch coordination cost.
func Backbone() Medium {
	return Medium{
		Name:          "backbone",
		Latency:       2 * time.Millisecond,
		LatencyJitter: 100 * time.Microsecond,
		BitRate:       100_000_000,
		LossProb:      0,
		MTU:           1500,
	}
}

// NetworkStats counts a broadcast domain's traffic.
type NetworkStats struct {
	Transmitted uint64 // frames offered to the medium
	Delivered   uint64 // frame deliveries (one per receiving device)
	LostMedium  uint64 // deliveries dropped by the loss model
}

// Network is a broadcast domain: every attached, up device receives a copy
// of each transmitted frame addressed to it (or to broadcast), after the
// medium's serialization and propagation delays. Every other attached device
// accounts the frame as a filter or down drop — by being walked, or, on a
// lossless segment, by the lazily settled arithmetic described at flight:
// a unicast frame's bystanders and the down devices a broadcast skips.
type Network struct {
	name string
	loop *sim.Loop
	// bufs is the loop's wire-buffer free lists, where a landed frame's
	// payload goes back.
	bufs    *bufpool.Lists
	medium  Medium
	devices []*Device
	// awake has bit i set while devices[i] is up: the devices a broadcast
	// fast flight walks, in attachment order. It grows with devices, so
	// keeping it allocates nothing once the segment is built, and it changes
	// only at settle points: the bring-up timer, BringDown, add and remove.
	awake []uint64
	// asleep counts the attached devices that are not up. With none to
	// skip, a broadcast walks devices straight: iterating awake's bits cost
	// an all-up segment about a tenth more a device.
	asleep int
	// attaches numbers attachments: the next device attached takes it as its
	// seq, so devices is sorted by seq and a device is found by binary
	// search.
	attaches uint64
	// byHW indexes the attached devices by hardware address (addresses are
	// unique on a loop, and Attach admits only the network's own loop's
	// devices, so it is a bijection with devices), packed by hwKey:
	// a uint64 key takes the map's fast path, which a [6]byte key misses.
	byHW   map[uint64]*Device
	stats  NetworkStats
	pktlog *metrics.PacketLog

	// busyUntil models the shared half-duplex channel: a frame cannot
	// start clocking out before the previous one finished.
	busyUntil sim.Time
	// lastDelivery enforces FIFO delivery so latency jitter cannot reorder
	// frames within one broadcast domain, which real Ethernets and the
	// Metricom radio channel do not do either.
	lastDelivery sim.Time

	// taps observe every transmitted frame (packet capture).
	taps []func(from *Device, f *Frame)

	// handoff, when set, makes this network one end of a cross-shard
	// trunk: transmitted frames are handed to the hook (with their
	// computed arrival time) instead of being delivered locally. The far
	// end injects them via DeliverLocal on its own shard. Ownership of the
	// frame's pooled payload, the sender's, transfers to the hook.
	//
	//mnet:ownership takes f
	handoff func(f *Frame, arrival sim.Time)
	// spare holds the frame records DeliverLocal took back, for this end's
	// handoff to send the next frame in. A trunk end delivers what its peer
	// hands off and hands off what its peer delivers, so on a two-way trunk
	// the two balance; the list keeps at most maxSpareFrames.
	spare sim.Records[Frame]

	// flights is the loop's list of flight records (frame + receiver
	// snapshot), so steady-state transmission does not allocate per frame
	// and a flight still in the air shows on the loop's ledger.
	flights *sim.Records[flight]

	// fastLanded counts the fast flights delivered so far. A device owes itself
	// one filter or down drop for each it has not settled, less the ones it
	// sent or was visited for (Device.settle).
	fastLanded uint64
	// airHead/airTail queue every flight still in the air, in launch order,
	// which lastDelivery makes the order of their arrival times. A landing
	// event lands the head, so frames on one medium arrive in launch order
	// whatever order the loop gives same-instant events.
	airHead, airTail *flight
	// landings holds one landing event per flight in the air. Arrival
	// times never decrease, so it is a monotone loop queue, not the heap.
	landings *sim.Queue
	// land is n.landHead, bound once: scheduling it allocates nothing.
	land func()
	// landing is the fast flight whose receiver callback is running: the
	// devices attached after the receiver have not been reached yet.
	landing *flight
}

// flight is one frame in transit: the sender's payload, which the flight
// owns until it lands, and the snapshot of receivers that survived the loss
// model at transmit time.
// One landing event delivers to every receiver in attachment order — the same
// observable order per-receiver events produced, since their consecutive
// sequence numbers admitted no interleaving — and then recycles the record.
// Every flight waits in its network's in-air queue, and the event lands the
// queue's head: the medium, not the loop, orders its frames.
//
// A fast flight (from != nil) is a frame whose snapshot would have been every
// attached device but the sender, so it is not taken. When it lands, the
// sender and every device it visits count it as their own (fastOwn) and every
// other attached device owes a drop, settled arithmetically. A unicast one
// can only be received by one device: its rx holds that device (or nobody,
// for a stale or self-addressed destination). A broadcast one (all) is
// received by everybody who is up: it lands by walking the devices n.awake
// marks, and the down devices it skips owe a down drop — unless a skipped
// device would log its drop (a traced frame on a loop with a packet log), in
// which case it walks every one. Three invariants keep that bit-exact with
// the snapshot:
//
//   - eligibility, decided at launch: LossProb == 0 (no per-receiver draw to
//     preserve), not a trunk end, and someone besides the sender attached (the
//     walk schedules no event for nobody). A unicast bystander writes no
//     packet-log row on the walk either (Device.deliver logs a drop only for
//     a frame the device would accept), so the log does not need the walk;
//   - settle points: a device folds its unsettled fast flights into
//     dropFilter or dropDown, by the state it holds, before that state
//     changes, before it detaches and before its counters are read. A device
//     a broadcast skipped is down, and stays so until it settles;
//   - materialize on membership change: before any attach or detach, every
//     fast flight in the air gets its full snapshot back, so "membership at
//     launch, state at arrival" still holds.
type flight struct {
	frame Frame
	rx    []*Device
	from  *Device // sender of a fast flight; nil on the general path
	all   bool    // a fast flight every device receives: a broadcast
	at    int     // index in n.devices a landing broadcast has reached
	next  *flight // in-air queue link
}

// newFlight makes the flight that carries f, adopting its payload.
//
//mnet:ownership takes f
func (n *Network) newFlight(f *Frame) *flight {
	fl := n.flights.Take()
	if fl == nil {
		fl = &flight{}
	}
	fl.frame = Frame{Src: f.Src, Dst: f.Dst, Type: f.Type, Payload: f.Payload, Trace: f.Trace}
	fl.rx = fl.rx[:0]
	return fl
}

// recycle puts the flight's payload back and keeps the record for the next
// frame.
func (n *Network) recycle(fl *flight) {
	n.bufs.Put(fl.frame.Payload)
	fl.frame = Frame{}
	n.flights.Put(fl)
}

// launch queues fl behind the flights already in the air and schedules its
// landing at arrival.
func (n *Network) launch(fl *flight, arrival sim.Time) {
	if n.airTail == nil {
		n.airHead = fl
	} else {
		n.airTail.next = fl
	}
	n.airTail = fl
	n.landings.At(arrival, n.land)
}

// landHead takes the flight at the head of the in-air queue and hands the
// shared frame to each of its receivers, then recycles the payload and the
// flight record. Receivers must not retain the frame or its payload beyond
// the synchronous delivery chain (ip.Unmarshal and arp.Unmarshal both copy
// what they keep).
func (n *Network) landHead() {
	fl := n.airHead
	if n.airHead = fl.next; n.airHead == nil {
		n.airTail = nil
	}
	fl.next = nil
	if fl.from != nil {
		// Fast flight: everyone but the sender gets a delivery — a device the
		// flight visits by its callback, every other one by arithmetic.
		n.landing = fl
		n.fastLanded++
		fl.from.fastOwn++
		if fl.all {
			n.stats.Delivered += uint64(len(n.devices) - 1)
			// A callback that settles or changes the membership ends the walk
			// here: finishWalk moves the devices not yet reached into rx.
			if n.asleep == 0 || fl.frame.Trace != 0 && n.pktlog != nil {
				// Nobody to skip, or a down device would log the traced
				// frame it misses: visit every device.
				devs := n.devices // the walk ends before devices changes
				for fl.at = 0; n.landing == fl && fl.at < len(devs); fl.at++ {
					n.visit(fl, devs[fl.at])
				}
			} else {
				for w := 0; n.landing == fl && w < len(n.awake); w++ {
					for up := n.awake[w]; n.landing == fl && up != 0; up &= up - 1 {
						fl.at = w<<6 | bits.TrailingZeros64(up)
						n.visit(fl, n.devices[fl.at])
					}
				}
			}
		} else {
			for _, d := range fl.rx {
				d.fastOwn++
			}
			n.stats.Delivered += uint64(len(n.devices) - 1 - len(fl.rx))
		}
	}
	// rx can grow under the loop: finishWalk appends the unreached devices.
	for i := 0; i < len(fl.rx); i++ {
		n.stats.Delivered++
		fl.rx[i].deliver(&fl.frame)
		fl.rx[i] = nil
	}
	n.landing = nil
	fl.from = nil
	n.recycle(fl)
}

// visit hands a landing broadcast fast flight to d, unless d sent it.
func (n *Network) visit(fl *flight, d *Device) {
	if d != fl.from {
		d.fastOwn++
		d.deliver(&fl.frame)
	}
}

// finishWalk turns the rest of the landing fast flight back into a walk. Its
// receiver's callback is about to settle a device or change the membership,
// and the devices attached after the receiver must meet the frame in the
// state they hold once the callback returns: they are taken out of the
// arithmetic and appended to rx. The devices before the receiver that the
// flight did not visit keep owing it.
func (n *Network) finishWalk() {
	fl := n.landing
	n.landing = nil
	i := fl.at
	if !fl.all {
		i, _ = find(n.devices, fl.rx[0])
	}
	for _, d := range n.devices[i+1:] {
		if d != fl.from {
			d.fastOwn++
			n.stats.Delivered--
			fl.rx = append(fl.rx, d)
		}
	}
}

// materialize turns every fast flight in the air (and the unreached part of
// one that is landing) into a walk with its full receiver snapshot, in place
// in the queue. It runs before the membership changes, so the snapshot is
// the one the walk would have taken at launch.
func (n *Network) materialize() {
	if n.landing != nil {
		n.finishWalk()
	}
	for fl := n.airHead; fl != nil; fl = fl.next {
		if fl.from == nil {
			continue
		}
		fl.rx = fl.rx[:0]
		for _, d := range n.devices {
			if d != fl.from {
				fl.rx = append(fl.rx, d)
			}
		}
		fl.from = nil
	}
}

// AddTap registers an observer invoked for every frame offered to the
// medium, before loss and delivery — a passive sniffer on the wire.
func (n *Network) AddTap(fn func(from *Device, f *Frame)) {
	n.taps = append(n.taps, fn)
}

// tap shows the observers a copy of the frame. They are func values, so
// what they are handed escapes to the heap; handing them the sender's frame
// would make every sender's frame escape, tapped or not. With the copy a
// frame built on the sender's stack stays there (arp.Cache.SendIP).
func (n *Network) tap(from *Device, f Frame) {
	for _, tap := range n.taps {
		tap(from, &f)
	}
}

// NewNetwork creates a broadcast domain over the given medium.
func NewNetwork(loop *sim.Loop, name string, m Medium) *Network {
	n := &Network{name: name, loop: loop, bufs: bufpool.For(loop), medium: m, pktlog: metrics.PacketsFor(loop), landings: loop.NewQueue(),
		spare: sim.Records[Frame]{Max: maxSpareFrames}, flights: sim.RecordsOf[flight](loop)}
	n.land = n.landHead
	metrics.For(loop).Collect(func(c *metrics.Collection) {
		lbl := metrics.L("net", name)
		c.Counter("link.network.transmitted", n.stats.Transmitted, lbl)
		c.Counter("link.network.delivered", n.stats.Delivered, lbl)
		c.Counter("link.network.lost_medium", n.stats.LostMedium, lbl)
	})
	return n
}

// Name returns the network name, e.g. "net-36.135".
func (n *Network) Name() string { return n.name }

// Medium returns the network's medium description.
func (n *Network) Medium() Medium { return n.medium }

// SetLossProb changes the medium's loss probability at runtime — the
// fault-injection seam for loss bursts. The loss model reads the
// probability per frame, so the change applies to the next transmission;
// frames already in flight keep the draw they were given. Returns the
// previous probability so the injector can restore it when the burst
// heals.
func (n *Network) SetLossProb(p float64) (prev float64) {
	prev = n.medium.LossProb
	n.medium.LossProb = p
	return prev
}

// Stats returns a snapshot of the network counters.
func (n *Network) Stats() NetworkStats { return n.stats }

// Devices returns the attached devices.
func (n *Network) Devices() []*Device { return append([]*Device(nil), n.devices...) }

func (n *Network) add(d *Device) {
	n.materialize()
	d.seq = n.attaches
	n.attaches++
	i := len(n.devices)
	n.devices = append(n.devices, d)
	if i>>6 == len(n.awake) {
		n.awake = append(n.awake, 0)
	}
	if d.state == StateUp {
		n.awake[i>>6] |= 1 << (i & 63)
	} else {
		n.asleep++
	}
	if n.byHW == nil {
		n.byHW = make(map[uint64]*Device)
	}
	n.byHW[hwKey(d.hw)] = d
	d.fastSeen, d.fastOwn = n.fastLanded, 0
}

func (n *Network) remove(d *Device) {
	n.materialize()
	d.settle()
	i, ok := find(n.devices, d)
	if !ok {
		return
	}
	// Delete nils the vacated slot, or the backing array would keep a
	// detached device (and its host) reachable.
	n.devices = slices.Delete(n.devices, i, i+1)
	delete(n.byHW, hwKey(d.hw))
	if d.state != StateUp {
		n.asleep--
	}
	// The bits above i move down one place with their devices.
	w, b := i>>6, i&63
	n.awake[w] = n.awake[w]&(1<<b-1) | n.awake[w]>>(b+1)<<b
	for ; w+1 < len(n.awake); w++ {
		n.awake[w] |= n.awake[w+1] << 63
		n.awake[w+1] >>= 1
	}
}

// mark records that an attached device has come up or is going down.
func (n *Network) mark(d *Device, up bool) {
	i, _ := find(n.devices, d)
	if up {
		n.awake[i>>6] |= 1 << (i & 63)
		n.asleep--
	} else {
		n.awake[i>>6] &^= 1 << (i & 63)
		n.asleep++
	}
}

// find returns where d is, or would be, in devices, a slice in attachment
// order.
func find(devices []*Device, d *Device) (int, bool) {
	return slices.BinarySearchFunc(devices, d.seq, func(x *Device, seq uint64) int { return cmp.Compare(x.seq, seq) })
}

// transmit schedules delivery of f from device from to every other attached
// device, taking f's payload as Send does. Each receiver independently
// suffers the medium's loss probability, which matches radio behaviour
// (receivers miss frames individually, not collectively).
//
//mnet:ownership takes f
func (n *Network) transmit(from *Device, f *Frame) {
	n.stats.Transmitted++
	if len(n.taps) > 0 {
		n.tap(from, *f)
	}
	now := n.loop.Now()
	start := now
	if n.busyUntil > start {
		start = n.busyUntil
	}
	txEnd := start.Add(n.medium.serializationDelay(f.Len()))
	n.busyUntil = txEnd
	arrival := txEnd.Add(n.loop.Jitter(n.medium.Latency, n.medium.LatencyJitter))
	if arrival < n.lastDelivery {
		arrival = n.lastDelivery
	}
	n.lastDelivery = arrival
	if n.handoff != nil {
		// Trunk end: the medium's loss model draws once (a point-to-point
		// span has one receiver, on the far shard), then ownership of the
		// payload transfers to the hook. All delay modeling happened here
		// on the transmit side; the far end delivers at `arrival` with no
		// further delay.
		if n.medium.LossProb > 0 && n.loop.Rand().Float64() < n.medium.LossProb {
			n.stats.LostMedium++
			n.pktlog.Record(f.Trace, n.name, "link.lost", "medium loss on trunk")
			n.bufs.Put(f.Payload)
			return
		}
		fr := n.spare.Take()
		if fr == nil {
			fr = new(Frame)
		}
		*fr = Frame{Src: f.Src, Dst: f.Dst, Type: f.Type, Payload: f.Payload, Trace: f.Trace}
		n.handoff(fr, arrival)
		return
	}
	if n.medium.LossProb == 0 && len(n.devices) > 1 {
		// A lone sender has no receiver and, as on the walk, costs no event.
		n.transmitFast(from, f, arrival)
		return
	}
	// Loss draws stay per-receiver in attachment order, so the RNG
	// consumption sequence is identical to per-receiver scheduling.
	fl := n.newFlight(f)
	for _, d := range n.devices {
		if d == from {
			continue
		}
		if n.medium.LossProb > 0 && n.loop.Rand().Float64() < n.medium.LossProb {
			n.stats.LostMedium++
			n.pktlog.RecordDetail(f.Trace, n.name, "link.lost", metrics.NameDetail(metrics.DetailLossToward, d.name))
			continue
		}
		fl.rx = append(fl.rx, d)
	}
	if len(fl.rx) == 0 {
		// A lone sender, or every receiver lost the frame: no event.
		n.recycle(fl)
		//lint:allow dropaccounting every receiver lost the frame; each loss was counted in LostMedium above
		return
	}
	n.launch(fl, arrival)
}

// transmitFast launches a fast flight (see flight): one index probe finds
// the only device that can receive a unicast frame (no device has the
// broadcast address, so a broadcast's rx stays empty). In the in-air queue a
// membership change can still give it its full snapshot.
//
//mnet:ownership takes f
func (n *Network) transmitFast(from *Device, f *Frame, arrival sim.Time) {
	fl := n.newFlight(f)
	fl.from, fl.all = from, f.Dst.IsBroadcast()
	if d := n.byHW[hwKey(f.Dst)]; d != nil && d != from {
		fl.rx = append(fl.rx, d)
	}
	n.launch(fl, arrival)
}

// hwKey packs a hardware address into byHW's key.
func hwKey(a HWAddr) uint64 {
	return uint64(a[0])<<40 | uint64(a[1])<<32 | uint64(a[2])<<24 | uint64(a[3])<<16 | uint64(a[4])<<8 | uint64(a[5])
}

// SetHandoff marks this network as the local end of a cross-shard trunk.
// Transmitted frames are passed to fn — with the sender's payload, now fn's,
// and the fully modeled arrival time — instead of being delivered on this
// shard.
// fn runs on this shard's goroutine; it must hand the frame to the far
// shard via sim.ShardSet.Post, never touch the far shard directly. Each
// loop numbers its devices' addresses from 1, so a trunk's two ends may
// share one: its interfaces must be PointToPoint (no ARP, broadcast frames).
func (n *Network) SetHandoff(fn func(f *Frame, arrival sim.Time)) {
	n.handoff = fn
}

// DeliverLocal delivers a frame received over a trunk to every attached
// device, then recycles the frame's payload onto this loop's lists and the
// frame record onto this end's spares. It must run on this network's own
// loop (the coordinator schedules it at the arrival time the transmit side
// computed). The frame and its pool-owned payload are the caller's until
// now; ownership of both transfers here. Trunk frames are broadcast (SetHandoff).
//
//mnet:ownership takes f
func (n *Network) DeliverLocal(f *Frame) {
	for _, d := range n.devices {
		n.stats.Delivered++
		d.deliver(f)
	}
	n.bufs.Put(f.Payload)
	*f = Frame{}
	n.spare.Put(f)
}

// maxSpareFrames caps a trunk end's spare frame records, so a one-way flow
// cannot grow them without bound.
const maxSpareFrames = 1 << 10
