package metrics

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"strconv"

	"mosquitonet/internal/ring"
	"mosquitonet/internal/sim"
)

// PacketEvent is one hop in a packet's lifecycle as readers see it: the
// virtual time, the packet's trace ID, the node and instrumentation point
// that observed it, and an optional detail string (addresses, drop reason,
// ...) rendered from the stored operands at export.
type PacketEvent struct {
	At     sim.Time `json:"at_ns"`
	Pkt    uint64   `json:"pkt"`
	Node   string   `json:"node"`
	Point  string   `json:"point"`
	Detail string   `json:"detail,omitempty"`
}

// DetailKind says which text a Detail's operands render to. The comment on
// each kind is that text.
type DetailKind uint8

const (
	DetailText         DetailKind = iota // <text>
	DetailLinkDst                        // dst=<hw>
	DetailLinkSrc                        // src=<hw>
	DetailLossToward                     // medium loss toward <text>
	DetailPacket                         // <proto> <a>-><b> ttl=<ttl> len=<len>
	DetailPacketVia                      // <proto> <a>-><b> ttl=<ttl> len=<len> via <text>
	DetailAddrPair                       // <a>-><b>
	DetailNextHop                        // next hop <a> via <text>
	DetailNotLocal                       // not local: dst=<a>
	DetailNoRoute                        // no route to <a>
	DetailPeerRejected                   // peer rejected: <a>
	DetailProto                          // <proto>
	DetailNoHandler                      // no handler for <proto>

	numDetailKinds
)

// Detail is a hop's detail before rendering: a kind and its raw operands.
// Call sites pass operands and String renders them, so a hop that is
// overwritten in the ring unread never costs a string. Operands are plain
// integers because this package imports nothing above sim. The zero Detail
// renders as "".
type Detail struct {
	text   string // an existing string: interface or device name, constant reason
	addr   uint64 // addresses a (high half) and b, or a hardware address in the low six bytes
	length uint32
	kind   DetailKind
	proto  uint8
	ttl    uint8
}

// Text is the detail that is an existing string, such as a constant reason.
func Text(s string) Detail { return Detail{text: s} }

// NameDetail is a detail about a named thing, such as a device.
func NameDetail(kind DetailKind, name string) Detail {
	return Detail{kind: kind, text: name}
}

// HWDetail is a detail about one hardware address.
func HWDetail(kind DetailKind, hw [6]byte) Detail {
	return Detail{kind: kind, addr: uint64(binary.BigEndian.Uint16(hw[:2]))<<32 | uint64(binary.BigEndian.Uint32(hw[2:]))}
}

// AddrDetail is a detail about one IP address and, for DetailNextHop, the
// egress interface's name.
func AddrDetail(kind DetailKind, a [4]byte, text string) Detail {
	return Detail{kind: kind, text: text, addr: uint64(binary.BigEndian.Uint32(a[:])) << 32}
}

// ProtoDetail is a detail about an IP protocol number.
func ProtoDetail(kind DetailKind, proto uint8) Detail {
	return Detail{kind: kind, proto: proto}
}

// PacketDetail is a detail about an IP header and, for DetailPacketVia,
// the egress interface's name.
func PacketDetail(kind DetailKind, proto uint8, src, dst [4]byte, ttl uint8, length int, text string) Detail {
	return Detail{kind: kind, text: text, proto: proto, ttl: ttl, length: uint32(length),
		addr: uint64(binary.BigEndian.Uint32(src[:]))<<32 | uint64(binary.BigEndian.Uint32(dst[:]))}
}

// String renders the detail.
func (d Detail) String() string {
	if d.kind == DetailText {
		return d.text
	}
	var buf [64]byte
	b := buf[:0]
	switch d.kind {
	case DetailLinkDst:
		b = appendHW(append(b, "dst="...), d.addr)
	case DetailLinkSrc:
		b = appendHW(append(b, "src="...), d.addr)
	case DetailLossToward:
		b = append(append(b, "medium loss toward "...), d.text...)
	case DetailPacket, DetailPacketVia:
		b = append(appendProto(b, d.proto), ' ')
		b = d.appendAddrPair(b)
		b = strconv.AppendUint(append(b, " ttl="...), uint64(d.ttl), 10)
		b = strconv.AppendUint(append(b, " len="...), uint64(d.length), 10)
		if d.kind == DetailPacketVia {
			b = append(append(b, " via "...), d.text...)
		}
	case DetailAddrPair:
		b = d.appendAddrPair(b)
	case DetailNextHop:
		b = appendAddr(append(b, "next hop "...), uint32(d.addr>>32))
		b = append(append(b, " via "...), d.text...)
	case DetailNotLocal:
		b = appendAddr(append(b, "not local: dst="...), uint32(d.addr>>32))
	case DetailNoRoute:
		b = appendAddr(append(b, "no route to "...), uint32(d.addr>>32))
	case DetailPeerRejected:
		b = appendAddr(append(b, "peer rejected: "...), uint32(d.addr>>32))
	case DetailProto:
		b = appendProto(b, d.proto)
	case DetailNoHandler:
		b = appendProto(append(b, "no handler for "...), d.proto)
	}
	return string(b)
}

func (d Detail) appendAddrPair(b []byte) []byte {
	b = appendAddr(b, uint32(d.addr>>32))
	b = append(b, "->"...)
	return appendAddr(b, uint32(d.addr))
}

// appendAddr appends a in dotted-quad form.
func appendAddr(b []byte, a uint32) []byte {
	for shift := 24; shift >= 0; shift -= 8 {
		b = strconv.AppendUint(b, uint64(a>>shift&0xff), 10)
		if shift > 0 {
			b = append(b, '.')
		}
	}
	return b
}

// appendHW appends hw in colon-separated hex.
func appendHW(b []byte, hw uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 40; shift >= 0; shift -= 8 {
		b = append(b, hex[hw>>(shift+4)&0xf], hex[hw>>shift&0xf])
		if shift > 0 {
			b = append(b, ':')
		}
	}
	return b
}

// appendProto appends an IP protocol number's name as ip.Protocol.String
// returns it. The record stores the number (a name would cost a string
// header per slot) and this package cannot import ip, so the four names are
// repeated here; TestProtoDetailMatchesIP pins all 256 values.
func appendProto(b []byte, proto uint8) []byte {
	switch proto {
	case 1:
		return append(b, "icmp"...)
	case 4:
		return append(b, "ipip"...)
	case 6:
		return append(b, "tcp"...)
	case 17:
		return append(b, "udp"...)
	}
	b = strconv.AppendUint(append(b, "proto("...), uint64(proto), 10)
	return append(b, ')')
}

// hopRecord is one ring slot: fixed size, no pointer the call site had to
// allocate.
type hopRecord struct {
	at          sim.Time
	pkt         uint64
	node, point string
	detail      Detail
}

func (r *hopRecord) event() PacketEvent {
	return PacketEvent{At: r.at, Pkt: r.pkt, Node: r.node, Point: r.point, Detail: r.detail.String()}
}

// PacketLog is a bounded ring of packet-lifecycle events. Every packet
// injected into an instrumented stack is assigned a monotonic trace ID
// (sim.Loop.NextSerial), carried as metadata through IP headers, link
// frames, ARP queues, and tunnel encapsulation, so one packet's journey —
// link rx → route lookup → policy decision → VIF encap → HA decap →
// delivery or drop-with-reason — can be dumped as a single causal
// timeline. A nil *PacketLog is valid and records nothing.
type PacketLog struct {
	loop *sim.Loop
	hops ring.Ring[hopRecord]
}

// DefaultPacketLogLimit bounds a packet log when no explicit limit is given.
const DefaultPacketLogLimit = 16384

// NewPacketLog creates a log keeping at most limit events (the oldest are
// evicted first). limit <= 0 selects DefaultPacketLogLimit.
func NewPacketLog(loop *sim.Loop, limit int) *PacketLog {
	if limit <= 0 {
		limit = DefaultPacketLogLimit
	}
	l := &PacketLog{loop: loop}
	l.hops.SetLimit(limit)
	return l
}

// Record appends an event for packet pkt whose detail is an existing
// string, such as a constant reason. Events for pkt 0 (an un-instrumented
// packet, e.g. a raw ARP frame) are ignored. Like RecordDetail it inlines,
// so a nil log costs its caller a nil check.
func (l *PacketLog) Record(pkt uint64, node, point, detail string) {
	if l == nil || pkt == 0 {
		return
	}
	l.put(pkt, node, point, Text(detail))
}

// RecordDetail is Record for a detail that has operands: the text is
// rendered only if the event is still in the ring when it is exported.
//
// It inlines (put is kept out of line for that), so a host without a log
// pays a nil check at the call site and no call.
func (l *PacketLog) RecordDetail(pkt uint64, node, point string, detail Detail) {
	if l == nil || pkt == 0 {
		return
	}
	l.put(pkt, node, point, detail)
}

// put stores field by field: assigning a hopRecord literal to the slot
// builds it on the stack and copies it with a bulk write barrier, which
// doubled the cost of a hop.
//
//go:noinline
func (l *PacketLog) put(pkt uint64, node, point string, detail Detail) {
	r := l.hops.Next()
	r.at, r.pkt, r.node, r.point, r.detail = l.loop.Now(), pkt, node, point, detail
}

// Len returns the number of retained events.
func (l *PacketLog) Len() int {
	if l == nil {
		return 0
	}
	return l.hops.Len()
}

// Evicted returns how many events were evicted from the ring.
func (l *PacketLog) Evicted() uint64 {
	if l == nil {
		return 0
	}
	return l.hops.Dropped()
}

// Events returns retained events in recording order.
func (l *PacketLog) Events() []PacketEvent {
	if l == nil {
		return nil
	}
	hops := l.hops.All()
	out := make([]PacketEvent, len(hops))
	for i := range hops {
		out[i] = hops[i].event()
	}
	return out
}

// Timeline returns the retained events for one packet, oldest first.
func (l *PacketLog) Timeline(pkt uint64) []PacketEvent {
	if l == nil {
		return nil
	}
	var out []PacketEvent
	for _, r := range l.hops.All() {
		if r.pkt == pkt {
			out = append(out, r.event())
		}
	}
	return out
}

// WriteJSONL writes retained events as one JSON object per line.
func (l *PacketLog) WriteJSONL(w io.Writer) error {
	for _, ev := range l.Events() {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
