package arp

import (
	"slices"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// The arp layer's rows of the host-requirements conformance table: each
// cites the rule it holds the cache to, builds its link from newHost, and
// observes a cache entry, a counter, or a frame seen on the wire through
// Network.AddTap.

// wire is one Ethernet segment with a tap that keeps what crossed it.
type wire struct {
	loop *sim.Loop
	net  *link.Network
	arp  []seenARP // ARP messages, in the order they were offered
	ipv4 [][]byte  // IPv4 payloads, copied
}

type seenARP struct {
	dst link.HWAddr // the frame's destination
	msg Message
}

func newWire(t *testing.T) *wire {
	t.Helper()
	w := &wire{loop: sim.New(1)}
	w.net = link.NewNetwork(w.loop, "net", link.Ethernet())
	w.net.AddTap(func(_ *link.Device, f *link.Frame) {
		switch f.Type {
		case link.EtherTypeARP:
			m, err := Unmarshal(f.Payload)
			if err != nil {
				t.Fatalf("malformed ARP frame on the wire: %v", err)
			}
			w.arp = append(w.arp, seenARP{f.Dst, *m})
		case link.EtherTypeIPv4:
			w.ipv4 = append(w.ipv4, append([]byte(nil), f.Payload...))
		}
	})
	return w
}

func (w *wire) host(t *testing.T, name, addr string) *host {
	t.Helper()
	return newHost(t, w.loop, w.net, name, addr, Config{EntryTTL: 10 * time.Second})
}

// replies returns the replies seen on the wire.
func (w *wire) replies() []seenARP {
	var out []seenARP
	for _, s := range w.arp {
		if s.msg.Op == OpReply {
			out = append(out, s)
		}
	}
	return out
}

func TestARPConformance(t *testing.T) {
	stale := link.HWAddr{0xde, 0xad, 0, 0, 0, 1}
	rows := []struct {
		name, cite, rule string
		check            func(t *testing.T)
	}{
		{"merge", "RFC 826, Packet Reception",
			"a receiver that holds the sender's address updates its entry; only the target creates one",
			func(t *testing.T) {
				w := newWire(t)
				a, b := w.host(t, "a", "10.0.0.1"), w.host(t, "b", "10.0.0.2")
				holder, other := w.host(t, "c", "10.0.0.3"), w.host(t, "d", "10.0.0.4")
				holder.cache.learn(a.addrs[0], stale)
				a.cache.SendIP(b.addrs[0], []byte("x"), 0)
				w.loop.RunFor(time.Second)
				if hw, ok := b.cache.Lookup(a.addrs[0]); !ok || hw != a.dev.HW() {
					t.Errorf("the target's entry for the sender: %v %v, want %v", hw, ok, a.dev.HW())
				}
				if hw, ok := holder.cache.Lookup(a.addrs[0]); !ok || hw != a.dev.HW() {
					t.Errorf("a bystander's existing entry: %v %v, want it updated to %v", hw, ok, a.dev.HW())
				}
				if hw, ok := other.cache.Lookup(a.addrs[0]); ok {
					t.Errorf("a bystander with no entry created one: %v", hw)
				}
			}},
		{"request_answered", "RFC 826, Packet Reception",
			"a request for a local address is answered, unicast to the requester, with the local hardware address",
			func(t *testing.T) {
				w := newWire(t)
				a, b := w.host(t, "a", "10.0.0.1"), w.host(t, "b", "10.0.0.2")
				a.cache.SendIP(b.addrs[0], []byte("x"), 0)
				w.loop.RunFor(time.Second)
				want := seenARP{a.dev.HW(), Message{Op: OpReply, SenderHW: b.dev.HW(), SenderIP: b.addrs[0], TargetHW: a.dev.HW(), TargetIP: a.addrs[0]}}
				if got := w.replies(); len(got) != 1 || got[0] != want {
					t.Errorf("replies on the wire %+v, want [%+v]", got, want)
				}
				if n := b.cache.Stats().RepliesSent; n != 1 {
					t.Errorf("RepliesSent = %d, want 1", n)
				}
			}},
		{"probe", "RFC 5227 §2.1.1",
			"a probe (sender protocol address 0.0.0.0) updates no cache, the target's included",
			func(t *testing.T) {
				w := newWire(t)
				a, b := w.host(t, "a", "10.0.0.1"), w.host(t, "b", "10.0.0.2")
				prober := w.host(t, "p", "")
				a.cache.SendIP(b.addrs[0], []byte("x"), 0) // a and b hold each other
				w.loop.RunFor(time.Second)
				before := [][]entry{slices.Clone(a.cache.entries), slices.Clone(b.cache.entries)}
				prober.cache.send(link.BroadcastHW, Message{Op: OpRequest, SenderHW: prober.dev.HW(), SenderIP: ip.Unspecified, TargetIP: b.addrs[0]})
				w.loop.RunFor(time.Second)
				for i, h := range []*host{a, b} {
					if !slices.Equal(h.cache.entries, before[i]) {
						t.Errorf("%s's cache moved on a probe: %+v, was %+v", h.dev.Name(), h.cache.entries, before[i])
					}
				}
			}},
		{"announcement", "RFC 5227 §3",
			"an announcement (sender = target protocol address) refreshes an existing entry and creates none",
			func(t *testing.T) {
				w := newWire(t)
				b := w.host(t, "b", "10.0.0.2")
				holder, other := w.host(t, "a", "10.0.0.1"), w.host(t, "c", "10.0.0.3")
				holder.cache.learn(b.addrs[0], stale) // fresh until 10 s
				w.loop.RunFor(8 * time.Second)
				b.cache.Gratuitous(b.addrs[0], b.dev.HW())
				w.loop.RunFor(7 * time.Second) // 15 s: past the entry's first lifetime
				if hw, ok := holder.cache.Lookup(b.addrs[0]); !ok || hw != b.dev.HW() {
					t.Errorf("the existing entry after the announcement: %v %v, want %v refreshed", hw, ok, b.dev.HW())
				}
				if hw, ok := other.cache.Lookup(b.addrs[0]); ok {
					t.Errorf("a host with no entry created one: %v", hw)
				}
			}},
		{"proxy", "RFC 1027",
			"a request for a published address gets a reply carrying the publisher's hardware address",
			func(t *testing.T) {
				w := newWire(t)
				a, ha := w.host(t, "a", "10.0.0.1"), w.host(t, "ha", "10.0.0.250")
				away := ip.MustParseAddr("10.0.0.7") // on no device of the link
				ha.cache.Publish(away)
				a.cache.SendIP(away, []byte("x"), 0)
				w.loop.RunFor(time.Second)
				want := seenARP{a.dev.HW(), Message{Op: OpReply, SenderHW: ha.dev.HW(), SenderIP: away, TargetHW: a.dev.HW(), TargetIP: a.addrs[0]}}
				if got := w.replies(); len(got) != 1 || got[0] != want {
					t.Errorf("replies on the wire %+v, want [%+v]", got, want)
				}
				if n := ha.cache.Stats().ProxyReplies; n != 1 {
					t.Errorf("ProxyReplies = %d, want 1", n)
				}
			}},
		{"queue_in_order", "RFC 1122 §2.3.2.2",
			"datagrams queued on an unresolved address go out, in the order they were sent, when the reply arrives",
			func(t *testing.T) {
				w := newWire(t)
				a, b := w.host(t, "a", "10.0.0.1"), w.host(t, "b", "10.0.0.2")
				sent := [][]byte{[]byte("first"), []byte("second"), []byte("third")}
				for _, p := range sent {
					a.cache.SendIP(b.addrs[0], append([]byte(nil), p...), 0)
				}
				if len(w.ipv4) != 0 {
					t.Fatalf("%d datagrams left before the address was resolved", len(w.ipv4))
				}
				w.loop.RunFor(time.Second)
				if !slices.EqualFunc(w.ipv4, sent, slices.Equal) {
					t.Errorf("on the wire %q, want %q", w.ipv4, sent)
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
