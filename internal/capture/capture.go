// Package capture is the simulator's tcpdump: it taps broadcast domains,
// decodes frames (ARP, IPv4, UDP — including DHCP, DNS and mobile-IP
// registration traffic — ICMP, TCP, and nested IP-in-IP), and renders
// one-line summaries. It exists for debugging topologies and for watching
// the protocol work (cmd/mnet -dump). It keeps no history: each decoded
// frame goes to the tap's consumer as it crosses the wire.
package capture

import (
	"fmt"

	"mosquitonet/internal/arp"
	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/dns"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/mip"
	"mosquitonet/internal/sim"
)

// Entry is one captured frame. Its JSON form is one line of
// mnet -dump-json.
type Entry struct {
	At      sim.Time `json:"at_ns"`
	Network string   `json:"network"`
	Line    string   `json:"line"`
}

func (e Entry) String() string {
	return fmt.Sprintf("%12v %-12s %s", e.At, e.Network, e.Line)
}

// Tap decodes every frame transmitted on n, stamped with loop's clock, and
// hands it to consume.
func Tap(loop *sim.Loop, n *link.Network, consume func(Entry)) {
	name := n.Name()
	n.AddTap(func(_ *link.Device, f *link.Frame) {
		consume(Entry{At: loop.Now(), Network: name, Line: FormatFrame(f)})
	})
}

// FormatFrame decodes one frame into a tcpdump-style line.
func FormatFrame(f *link.Frame) string {
	switch f.Type {
	case link.EtherTypeARP:
		return formatARP(f.Payload)
	case link.EtherTypeIPv4:
		pkt, err := ip.Unmarshal(f.Payload)
		if err != nil {
			return fmt.Sprintf("ip [malformed: %v]", err)
		}
		return FormatPacket(pkt)
	default:
		return fmt.Sprintf("ethertype %#04x, %d bytes", uint16(f.Type), len(f.Payload))
	}
}

func formatARP(b []byte) string {
	m, err := arp.Unmarshal(b)
	if err != nil {
		return fmt.Sprintf("arp [malformed: %v]", err)
	}
	switch {
	case m.Op == arp.OpRequest && m.IsGratuitous():
		return fmt.Sprintf("arp gratuitous %v is-at %v", m.SenderIP, m.SenderHW)
	case m.Op == arp.OpRequest:
		return fmt.Sprintf("arp who-has %v tell %v", m.TargetIP, m.SenderIP)
	case m.Op == arp.OpReply:
		return fmt.Sprintf("arp reply %v is-at %v", m.SenderIP, m.SenderHW)
	default:
		return fmt.Sprintf("arp op=%d", m.Op)
	}
}

// FormatPacket decodes an IPv4 packet, recursing through IP-in-IP.
func FormatPacket(pkt *ip.Packet) string {
	if pkt.IsFragment() {
		return fmt.Sprintf("%v > %v: %v frag id=%d off=%d mf=%v len=%d",
			pkt.Src, pkt.Dst, pkt.Protocol, pkt.ID, pkt.FragOff*8, pkt.MoreFrag, pkt.Len())
	}
	switch pkt.Protocol {
	case ip.ProtoIPIP:
		// The plain parser, not ip.Decapsulate: capture only observes, and
		// Decapsulate consumes its argument and draws from the packet pool.
		inner, err := ip.Unmarshal(pkt.Payload)
		if err != nil {
			return fmt.Sprintf("%v > %v: ipip [bad inner]", pkt.Src, pkt.Dst)
		}
		return fmt.Sprintf("%v > %v: ipip { %s }", pkt.Src, pkt.Dst, FormatPacket(inner))
	case ip.ProtoICMP:
		return formatICMP(pkt)
	case ip.ProtoUDP:
		return formatUDP(pkt)
	case ip.ProtoTCP:
		return formatTCP(pkt)
	default:
		return fmt.Sprintf("%v > %v: %v, %d bytes", pkt.Src, pkt.Dst, pkt.Protocol, len(pkt.Payload))
	}
}

func formatICMP(pkt *ip.Packet) string {
	m, err := ip.UnmarshalICMP(pkt.Payload)
	if err != nil {
		return fmt.Sprintf("%v > %v: icmp [malformed]", pkt.Src, pkt.Dst)
	}
	switch m.Type {
	case ip.ICMPEchoRequest:
		return fmt.Sprintf("%v > %v: icmp echo request id=%d seq=%d", pkt.Src, pkt.Dst, m.ID, m.Seq)
	case ip.ICMPEchoReply:
		return fmt.Sprintf("%v > %v: icmp echo reply id=%d seq=%d", pkt.Src, pkt.Dst, m.ID, m.Seq)
	case ip.ICMPDestUnreach:
		return fmt.Sprintf("%v > %v: icmp unreachable code=%d", pkt.Src, pkt.Dst, m.Code)
	case ip.ICMPRedirect:
		return fmt.Sprintf("%v > %v: icmp redirect to %v", pkt.Src, pkt.Dst, m.Gateway())
	default:
		return fmt.Sprintf("%v > %v: %v code=%d", pkt.Src, pkt.Dst, m.Type, m.Code)
	}
}

func formatUDP(pkt *ip.Packet) string {
	h, payload, err := ip.UnmarshalUDP(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		return fmt.Sprintf("%v > %v: udp [malformed]", pkt.Src, pkt.Dst)
	}
	head := fmt.Sprintf("%v:%d > %v:%d:", pkt.Src, h.SrcPort, pkt.Dst, h.DstPort)
	if app := formatApp(h, payload); app != "" {
		return head + " " + app
	}
	return fmt.Sprintf("%s udp %d bytes", head, len(payload))
}

// formatApp names well-known application payloads.
func formatApp(h ip.UDPHeader, payload []byte) string {
	switch {
	case h.DstPort == mip.Port || h.SrcPort == mip.Port:
		typ, err := mip.MessageType(payload)
		if err != nil {
			return ""
		}
		switch typ {
		case mip.TypeRegRequest:
			var r mip.RegRequest
			if err := mip.UnmarshalRegRequest(&r, payload); err == nil {
				if r.IsDeregistration() {
					return fmt.Sprintf("mip dereg home=%v id=%d", r.HomeAddr, r.ID)
				}
				return fmt.Sprintf("mip reg-request home=%v careof=%v life=%ds id=%d", r.HomeAddr, r.CareOf, r.Lifetime, r.ID)
			}
		case mip.TypeRegReply:
			var r mip.RegReply
			if err := mip.UnmarshalRegReply(&r, payload); err == nil {
				return fmt.Sprintf("mip reg-reply %s life=%ds id=%d", mip.CodeString(r.Code), r.Lifetime, r.ID)
			}
		case mip.TypeAgentAdvert:
			if a, err := mip.UnmarshalAgentAdvert(payload); err == nil {
				return fmt.Sprintf("mip agent-advert agent=%v seq=%d", a.Agent, a.Seq)
			}
		case mip.TypePFANotify:
			if p, err := mip.UnmarshalPFANotify(payload); err == nil {
				return fmt.Sprintf("mip pfa-notify home=%v newcareof=%v", p.HomeAddr, p.NewCareOf)
			}
		}
	case h.DstPort == dhcp.ServerPort || h.DstPort == dhcp.ClientPort:
		if m, err := dhcp.Unmarshal(payload); err == nil {
			return fmt.Sprintf("dhcp %v yiaddr=%v", m.Type, m.YourAddr)
		}
	case h.DstPort == dns.Port || h.SrcPort == dns.Port:
		if m, err := dns.Unmarshal(payload); err == nil {
			return "dns " + m.String()
		}
	}
	return ""
}

func formatTCP(pkt *ip.Packet) string {
	h, payload, err := ip.UnmarshalTCP(pkt.Src, pkt.Dst, pkt.Payload)
	if err != nil {
		return fmt.Sprintf("%v > %v: tcp [malformed]", pkt.Src, pkt.Dst)
	}
	return fmt.Sprintf("%v:%d > %v:%d: tcp %s seq=%d ack=%d len=%d",
		pkt.Src, h.SrcPort, pkt.Dst, h.DstPort, h.FlagString(), h.Seq, h.Ack, len(payload))
}
