package transport

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
)

// The transport's rows of the conformance table: each cites the RFC rule it
// holds the UDP or TCP layer to, or declares a departure from it and holds
// today's behaviour (DESIGN §3 gives the reason for each departure).

func TestTransportConformance(t *testing.T) {
	rows := []struct {
		name, cite, rule string
		check            func(t *testing.T)
	}{
		// RFC 1122 §4.1.3.1: a host SHOULD answer a datagram to a port no
		// socket is bound to with ICMP Port Unreachable. This stack counts
		// it as UDPNoSocket and answers nothing (DESIGN §3 "UDP to a
		// closed port draws no Port Unreachable"). The row holds today's
		// behaviour.
		{"udp_closed_port", "RFC 1122 §4.1.3.1 (departure)",
			"no Port Unreachable: a datagram to a port with no socket is counted as UDPNoSocket, and nothing goes back",
			func(t *testing.T) {
				p := newPair(t, link.Ethernet(), 1)
				icmpOnWire := 0
				p.net.AddTap(func(_ *link.Device, f *link.Frame) {
					if f.Type != link.EtherTypeIPv4 {
						return
					}
					if pkt, err := ip.Unmarshal(f.Payload); err == nil && pkt.Protocol == ip.ProtoICMP {
						icmpOnWire++
					}
				})
				cli, err := p.a.UDP(ip.Unspecified, 0, nil)
				if err != nil {
					t.Fatal(err)
				}
				cli.SendTo(p.bAddr, 4242, []byte("anyone there?"))
				p.loop.RunFor(time.Second)
				if got := p.b.StatsSnapshot().UDPNoSocket; got != 1 {
					t.Fatalf("b counted %d datagrams without a socket, want 1", got)
				}
				if icmpOnWire != 0 {
					t.Errorf("%d ICMP messages on the wire, want none (the departure)", icmpOnWire)
				}
			}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Logf("%s: %s", r.cite, r.rule)
			r.check(t)
		})
	}
}
