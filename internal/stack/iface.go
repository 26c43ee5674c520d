package stack

import (
	"fmt"

	"mosquitonet/internal/arp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/metrics"
)

// TransmitFunc is the send half of a virtual interface: it receives the
// fully formed packet and the chosen next hop. The tunnel package's VIF is
// the canonical implementation — it encapsulates the packet and feeds the
// result back into the host's output path. The function takes pkt: a device
// interface releases a packet once the wire has its bytes, a virtual one
// hands it to whatever transmit does with it (loopback re-injects the same
// packet through Input).
//
//mnet:ownership takes pkt
type TransmitFunc func(pkt *ip.Packet, nextHop ip.Addr)

// Iface is a host's network interface: either backed by a link device (with
// an ARP resolver on broadcast media) or virtual (loopback, VIF).
type Iface struct {
	host *Host
	name string

	addr   ip.Addr
	prefix ip.Prefix

	dev      *link.Device
	arp      *arp.Cache
	transmit TransmitFunc // virtual interfaces only

	// pointToPoint marks device-backed interfaces on media without ARP
	// (e.g. the radio's Starmode, where the STRIP driver maps addresses
	// algorithmically). Frames are sent to the link broadcast address and
	// filtered by IP on receive.
	pointToPoint bool

	// transitFilter drops, when forwarding, a packet that arrived here with
	// a source outside prefix (see SetTransitFilter).
	transitFilter bool

	// arpAddrs backs the one-address slice the ARP cache's localAddrs
	// callback returns (AddIface) on every ARP frame heard.
	arpAddrs [1]ip.Addr
}

// Name returns the interface name, e.g. "eth0", "strip0", "vif0", "lo".
func (i *Iface) Name() string { return i.name }

// Addr returns the interface's IP address (zero if unconfigured).
func (i *Iface) Addr() ip.Addr { return i.addr }

// Prefix returns the connected subnet.
func (i *Iface) Prefix() ip.Prefix { return i.prefix }

// Device returns the backing link device, or nil for virtual interfaces.
func (i *Iface) Device() *link.Device { return i.dev }

// ARP returns the interface's ARP cache, or nil.
func (i *Iface) ARP() *arp.Cache { return i.arp }

// Up reports whether the interface can pass traffic.
func (i *Iface) Up() bool {
	if i.dev != nil {
		return i.dev.IsUp()
	}
	return true // virtual interfaces are always up
}

// IsVirtual reports whether the interface has no backing device.
func (i *Iface) IsVirtual() bool { return i.dev == nil }

func (i *Iface) String() string {
	return fmt.Sprintf("%s %v/%d", i.name, i.addr, i.prefix.Bits)
}

// SetAddr reconfigures the interface's address and subnet. This is the
// "configuring the interface" step of the paper's registration time-line;
// the caller (the mobile host) charges the configuration latency.
func (i *Iface) SetAddr(addr ip.Addr, prefix ip.Prefix) {
	i.addr = addr
	i.prefix = prefix.Normalize()
}

// SetTransitFilter switches the paper's transit-traffic filter (§3.2) on
// this interface: with it on, the host forwards no packet that arrives here
// with a source address outside the interface's subnet, and records each
// one it drops under DropFilter as "filtered". A mobile host on the visited
// network that sends with its home address as source — the triangle route
// — is refused; one that tunnels, with its local care-of address as outer
// source, passes. The flag is read per packet, so a switch takes effect on
// the next one.
func (i *Iface) SetTransitFilter(on bool) {
	i.transitFilter = on
}

// MTU returns the largest packet the interface carries, or 0 (unlimited)
// for virtual interfaces.
func (i *Iface) MTU() int {
	if i.dev == nil || i.dev.Network() == nil {
		return 0
	}
	return i.dev.Network().Medium().MTU
}

// send emits pkt toward nextHop on this interface, fragmenting when the
// packet exceeds the medium MTU. DF-marked oversized packets are dropped
// here; path-MTU signaling happens in the forwarding engine, which has
// the context to send the ICMP error.
//
// send takes pkt. This is where a packet that leaves the host dies: once
// its bytes are marshaled onto the wire (or it could not be sent) it is
// released; a virtual interface's transmit function takes it instead.
//
//mnet:ownership takes pkt
func (i *Iface) send(pkt *ip.Packet, nextHop ip.Addr) error {
	if i.transmit != nil {
		i.transmit(pkt, nextHop)
		return nil
	}
	err := i.sendWire(pkt, nextHop)
	pkt.Release()
	return err
}

// sendWire puts pkt on the device, in fragments if it must. The fragments
// are windows into pkt's payload, marshaled before send releases it.
func (i *Iface) sendWire(pkt *ip.Packet, nextHop ip.Addr) error {
	if mtu := i.MTU(); mtu > 0 && pkt.Len() > mtu {
		frags, err := ip.Fragment(pkt, mtu)
		if err != nil {
			i.host.recordDrop(pkt.Trace, dropMTU, metrics.Text("cannot fragment to mtu"))
			return err
		}
		i.host.stats.FragmentsSent += uint64(len(frags))
		for _, f := range frags {
			f.Trace = pkt.Trace
			if err := i.sendOne(f, nextHop); err != nil {
				return err
			}
		}
		return nil
	}
	return i.sendOne(pkt, nextHop)
}

func (i *Iface) sendOne(pkt *ip.Packet, nextHop ip.Addr) error {
	// Marshal into a pooled scratch buffer; ownership moves down the send
	// path (SendIP/broadcastRaw recycle it once the link layer has taken
	// its own copy or the packet is dropped).
	buf := i.host.bufs.Get(pkt.Len())
	raw, err := pkt.MarshalInto(buf)
	if err != nil {
		i.host.bufs.Put(buf)
		return err
	}
	broadcast := pkt.Dst.IsBroadcast() || pkt.Dst.IsMulticast() ||
		(i.prefix.Bits > 0 && pkt.Dst == i.prefix.BroadcastAddr())
	if broadcast || i.pointToPoint || i.arp == nil {
		i.broadcastRaw(raw, pkt.Trace)
		return nil
	}
	i.arp.SendIP(nextHop, raw, pkt.Trace)
	return nil
}

// broadcastRaw sends an IPv4 payload to the link broadcast address, used
// both for genuine broadcasts and for ARP-less (point-to-point/Starmode)
// media where IP filtering happens at the receiver. It takes ownership of
// raw and hands it to Send.
//
//mnet:ownership takes raw
func (i *Iface) broadcastRaw(raw []byte, trace uint64) {
	if i.arp != nil {
		i.arp.SendBroadcastIP(raw, trace)
		return
	}
	// The frame does not outlive Send, which copies its fields: it stays on
	// this stack.
	i.dev.Send(&link.Frame{Dst: link.BroadcastHW, Type: link.EtherTypeIPv4, Payload: raw, Trace: trace})
}
