package transport

import (
	"errors"
	"math/rand"
	"testing"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
)

// The UDP binding table is a slice scanned on every bind and datagram; these
// tests hold it to a map oracle keyed by (address, port) — what the table
// was — over seeded runs of binds, closes, rebinds and ephemeral binds, with
// every demultiplexing answer checked after every step.

// bindAddrs and bindPorts are the small spaces the runs draw from, so
// collisions, wildcards and handler-less bindings meet often. Two of the
// ports sit where the ephemeral allocator starts, so an ephemeral bind has
// to step over them.
var (
	bindAddrs = []ip.Addr{ip.Unspecified, ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr("10.0.0.2")}
	bindPorts = []uint16{7, 9, 32769, 32770}
)

// bindingOutcomes counts what a run exercised, so the seeded test can show
// it reached every case it claims to cover.
type bindingOutcomes struct {
	bindInUse, rebindInUse, ephemeral, fallThrough, noSocket, delivered int
}

// runBindings applies the operations ops encodes to a fresh stack and to a
// map oracle, and fails t at the first disagreement.
func runBindings(t testing.TB, ops []byte) bindingOutcomes {
	host := stack.NewHost(sim.New(1), "h", stack.Config{})
	s := NewStack(host)
	oracle := map[bindKey]*UDPSocket{}
	var socks []*UDPSocket // every socket made, open or closed
	got := map[*UDPSocket]int{}
	var out bindingOutcomes
	portSeq := uint16(32768) // the oracle's copy of the ephemeral cursor

	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	open := func(bound ip.Addr, port uint16, withHandler bool) {
		var u *UDPSocket
		var h DatagramHandler
		if withHandler {
			h = func(Datagram) { got[u]++ }
		}
		want := port
		if port == 0 {
			out.ephemeral++
			for want = 0; want == 0; {
				portSeq++
				if portSeq < 32768 {
					portSeq = 32768
				}
				if oracle[bindKey{bound, portSeq}] == nil && oracle[bindKey{ip.Unspecified, portSeq}] == nil {
					want = portSeq
				}
			}
		}
		u, err := s.UDP(bound, port, h)
		if taken := oracle[bindKey{bound, want}] != nil; taken {
			out.bindInUse++
			if !errors.Is(err, ErrPortInUse) || u != nil {
				t.Fatalf("bind %v:%d over a binding: %v, %v", bound, want, u, err)
			}
			return
		}
		if err != nil || u.Port() != want || u.Bound() != bound {
			t.Fatalf("bind %v:%d: got %v:%d, %v", bound, want, u.Bound(), u.Port(), err)
		}
		oracle[bindKey{bound, want}] = u
		socks = append(socks, u)
	}
	demux := func() {
		if len(s.udp) != len(oracle) {
			t.Fatalf("table holds %d sockets, oracle %d", len(s.udp), len(oracle))
		}
		for _, u := range s.udp {
			if oracle[bindKey{u.bound, u.port}] != u || u.closed {
				t.Fatalf("table holds %v:%d, which the oracle does not", u.bound, u.port)
			}
		}
		ports := append([]uint16(nil), bindPorts...)
		for k := range oracle {
			ports = append(ports, k.port)
		}
		for _, dst := range bindAddrs[1:] {
			for _, port := range ports {
				want := oracle[bindKey{dst, port}]
				if want == nil || want.handler == nil {
					if w := oracle[bindKey{ip.Unspecified, port}]; w != nil && w.handler != nil {
						if want != nil {
							out.fallThrough++
						}
						want = w
					}
				}
				if want != nil && want.handler == nil {
					want = nil
				}
				before, noSock := got[want], s.stats.UDPNoSocket
				pkt := ip.NewUDPPacket(host.Packets(), ip.MustParseAddr("10.9.9.9"), dst, ip.UDPHeader{SrcPort: 1, DstPort: port}, []byte("x"))
				s.udpInput(nil, pkt)
				pkt.Release()
				switch {
				case want == nil && s.stats.UDPNoSocket != noSock+1:
					t.Fatalf("datagram to %v:%d was delivered; the oracle has no receiver", dst, port)
				case want == nil:
					out.noSocket++
				case got[want] != before+1:
					t.Fatalf("datagram to %v:%d missed %v:%d", dst, port, want.bound, want.port)
				default:
					out.delivered++
				}
			}
		}
	}

	for len(ops) > 0 {
		switch op := next() % 4; {
		case op == 0 || len(socks) == 0: // bind a fixed port
			open(bindAddrs[next()%len(bindAddrs)], bindPorts[next()%len(bindPorts)], next()%3 != 0)
		case op == 1: // bind an ephemeral port
			open(bindAddrs[next()%len(bindAddrs)], 0, next()%3 != 0)
		case op == 2: // close
			u := socks[next()%len(socks)]
			if !u.closed {
				delete(oracle, bindKey{u.bound, u.port})
			}
			u.Close()
		default: // rebind
			u := socks[next()%len(socks)]
			to := bindAddrs[next()%len(bindAddrs)]
			if !u.closed {
				delete(oracle, bindKey{u.bound, u.port})
			}
			err := u.Rebind(to)
			if oracle[bindKey{to, u.port}] != nil {
				out.rebindInUse++
				if !errors.Is(err, ErrPortInUse) || !u.closed {
					t.Fatalf("rebind %d onto a binding of %v: %v, closed %v", u.port, to, err, u.closed)
				}
				break
			}
			if err != nil || u.closed || u.bound != to {
				t.Fatalf("rebind %d to %v: %v, now %v closed %v", u.port, to, err, u.bound, u.closed)
			}
			oracle[bindKey{to, u.port}] = u
		}
		demux()
	}
	return out
}

// TestUDPBindingsMatchMapOracle runs seeded operation sequences and checks
// they reached every case: binds and rebinds refused with ErrPortInUse,
// ephemeral binds, a handler-less exact binding falling through to the
// wildcard, and datagrams with no receiver.
func TestUDPBindingsMatchMapOracle(t *testing.T) {
	var total bindingOutcomes
	for seed := int64(1); seed <= 40; seed++ {
		ops := make([]byte, 600)
		rand.New(rand.NewSource(seed)).Read(ops)
		o := runBindings(t, ops)
		total.bindInUse += o.bindInUse
		total.rebindInUse += o.rebindInUse
		total.ephemeral += o.ephemeral
		total.fallThrough += o.fallThrough
		total.noSocket += o.noSocket
		total.delivered += o.delivered
	}
	t.Logf("%+v", total)
	if total.bindInUse == 0 || total.rebindInUse == 0 || total.ephemeral == 0 ||
		total.fallThrough == 0 || total.noSocket == 0 || total.delivered == 0 {
		t.Fatalf("the runs missed a case: %+v", total)
	}
}

// TestWarmRebindAllocatesNothing: a registration socket following its
// care-of address back and forth reuses the table's room.
func TestWarmRebindAllocatesNothing(t *testing.T) {
	s := NewStack(stack.NewHost(sim.New(1), "h", stack.Config{}))
	if _, err := s.Echo(ip.Unspecified, 7); err != nil {
		t.Fatal(err)
	}
	u, err := s.UDP(ip.MustParseAddr("10.0.0.1"), 434, func(Datagram) {})
	if err != nil {
		t.Fatal(err)
	}
	a, b := ip.MustParseAddr("10.0.0.1"), ip.MustParseAddr("10.0.0.2")
	if got := testing.AllocsPerRun(100, func() {
		if u.Rebind(b) != nil || u.Rebind(a) != nil {
			t.Fatal("rebind refused")
		}
	}); got != 0 {
		t.Fatalf("a warm Rebind allocates %.1f objects, want 0", got)
	}
}

// FuzzUDPBindings holds the binding table to the map oracle over arbitrary
// operation sequences.
func FuzzUDPBindings(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 3, 0, 1, 2, 1})
	f.Add([]byte{1, 1, 1, 1, 0, 1, 1, 3, 0, 0, 2, 0, 1, 2, 2, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		runBindings(t, ops)
	})
}
