package mip

import (
	"errors"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/transport"
)

// A connectivity operation is walked by a record the loop reuses from one
// switch to the next. These tests state the per-call contract the record
// must keep — they were written against the closure chains it replaced and
// passed there: overlapping calls each run to their own done, a done may
// start the next switch, and a cancelled chain reports nothing and disturbs
// nobody.

const phaseDelay = 10 * time.Millisecond

// staticIface adds a managed interface on n with a fixed foreign address,
// whose device takes bringUp to come up, and spaces the walk's phases
// phaseDelay apart so a test can step between them.
func (w *world) staticIface(name string, n *link.Network, cidr, gw string, bringUp time.Duration) *ManagedIface {
	w.t.Helper()
	w.mh.cfg.ConfigureDelay, w.mh.cfg.RouteChangeDelay = phaseDelay, phaseDelay
	dev := link.NewDevice(w.loop, "mh-"+name, bringUp, 0)
	dev.Attach(n)
	pfx := ip.MustParsePrefix(cidr)
	mi, err := w.mh.AddInterface(name, dev, false, &StaticConfig{
		Addr: ip.MustParseAddr(cidr[:len(cidr)-3]), Prefix: pfx, Gateway: ip.MustParseAddr(gw),
	})
	if err != nil {
		w.t.Fatal(err)
	}
	return mi
}

// outcome records one operation's done.
type outcome struct {
	calls int
	err   error
}

func (o *outcome) done(err error) { o.calls++; o.err = err }

func (o *outcome) ok() bool { return o.calls == 1 && o.err == nil }

// freeOps counts the records on the loop's free list, and checks that each
// went back with nothing of its operation left on it. It takes them off the
// list to look and puts them back in their order.
func (w *world) freeOps() int {
	w.t.Helper()
	recs := sim.RecordsOf[switchOp](w.loop)
	free := make([]*switchOp, recs.Free())
	for i := range free {
		op := recs.Take()
		if op.m != nil || op.mi != nil || op.from != nil || op.done != nil || op.root != nil || op.cur != nil || op.step == nil || op.finish == nil {
			w.t.Fatalf("free record %d still holds its operation: %+v", i, *op)
		}
		free[i] = op
	}
	for i := len(free) - 1; i >= 0; i-- {
		recs.Put(free[i])
	}
	return len(free)
}

func TestOverlappingSwitchesEachReachTheirDone(t *testing.T) {
	t.Run("two ConnectForeign on one interface", func(t *testing.T) {
		w := newWorld(t, 1)
		s := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 100*time.Millisecond)
		var first, second outcome
		w.mh.ConnectForeign(s, first.done) // up at 100ms, registers at ~130ms
		w.run(115 * time.Millisecond)
		w.mh.ConnectForeign(s, second.done) // finds the device up mid-configure, registers at ~145ms
		w.run(10 * time.Millisecond)
		if first.calls != 0 || second.calls != 0 {
			t.Fatalf("a switch reported before it registered: first %+v second %+v", first, second)
		}
		w.run(time.Second)
		if !first.ok() || !second.ok() {
			t.Fatalf("first %+v, second %+v; want each done once with nil", first, second)
		}
		if st := w.mh.Stats(); st.Registrations != 2 || w.mh.CareOf() != s.Addr() || w.mh.Active() != s {
			t.Fatalf("after both: %+v, care-of %v", st, w.mh.CareOf())
		}
		if spans := w.tr.FindSpans(kSpanConnect); len(spans) != 2 || spans[0].Open() || spans[1].Open() {
			t.Fatalf("connect spans: %+v", spans)
		}
		if n := w.freeOps(); n != 2 {
			t.Fatalf("%d records came back from two overlapping switches", n)
		}
	})

	// Both calls wait on one bring-up: each walks on from the moment the
	// device is up. (The second used never to hear of it.) They reach
	// registration together, where the later request supersedes the earlier
	// like any two registrations do.
	t.Run("two ConnectForeign waiting on one bring-up", func(t *testing.T) {
		w := newWorld(t, 1)
		s := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 100*time.Millisecond)
		var first, second outcome
		w.mh.ConnectForeign(s, first.done)
		w.run(50 * time.Millisecond)
		w.mh.ConnectForeign(s, second.done)
		w.run(time.Second)
		if st := w.mh.Stats(); st.RegRequestsSent != 2 || st.Registrations != 1 {
			t.Fatalf("both chains should reach registration and the later one complete: %+v", st)
		}
		if first.calls+second.calls != 1 || first.err != nil || second.err != nil {
			t.Fatalf("first %+v, second %+v; want the superseding one done with nil, the other silent", first, second)
		}
		if !w.mh.Registered() || w.mh.CareOf() != s.Addr() {
			t.Fatalf("registered=%v care-of %v", w.mh.Registered(), w.mh.CareOf())
		}
	})

	t.Run("Prepare on one interface while Active moves to another by HotSwitch", func(t *testing.T) {
		w := newWorld(t, 1)
		a := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 0)
		b := w.staticIface("s1", w.forB, "10.3.0.50/24", "10.3.0.1", 0)
		var staged outcome
		b.Iface().Device().BringUp(nil)
		w.mh.Prepare(b, staged.done)
		w.run(time.Second)
		if !staged.ok() || !b.Ready() {
			t.Fatalf("staging s1: %+v ready=%v", staged, b.Ready())
		}

		var activated, prepared outcome
		a.Iface().Device().BringUp(nil)
		w.run(0)
		w.mh.HotSwitch(b, activated.done)
		w.mh.Prepare(a, prepared.done)
		w.run(phaseDelay / 2)
		if activated.calls != 0 || prepared.calls != 0 || a.Ready() {
			t.Fatalf("mid-phase: activate %+v prepare %+v s0 ready=%v", activated, prepared, a.Ready())
		}
		w.run(time.Second)
		if !activated.ok() || !prepared.ok() {
			t.Fatalf("activate %+v, prepare %+v; want each done once with nil", activated, prepared)
		}
		if w.mh.Active() != b || w.mh.CareOf() != b.Addr() || !a.Ready() || a.Addr() != ip.MustParseAddr("10.2.0.50") {
			t.Fatalf("active %v care-of %v; s0 ready=%v addr %v", nameOf(w.mh.Active()), w.mh.CareOf(), a.Ready(), a.Addr())
		}
	})
}

func TestSwitchDoneMayStartTheNextSwitch(t *testing.T) {
	w := newWorld(t, 1)
	s := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 0)
	var first, second outcome
	w.mh.ConnectForeign(s, func(err error) {
		first.done(err)
		w.mh.ConnectForeign(s, second.done)
	})
	w.run(time.Second)
	if !first.ok() || !second.ok() {
		t.Fatalf("first %+v, second %+v; want each done once with nil", first, second)
	}
	if st := w.mh.Stats(); st.Registrations != 2 || st.Renewals != 1 {
		t.Fatalf("stats after the chained switches: %+v", st)
	}
	if n := w.freeOps(); n != 1 {
		t.Fatalf("%d records on the free list; the second switch should have walked the first's", n)
	}
}

func TestCancelledSwitchIsNeverRecycled(t *testing.T) {
	t.Run("Disconnect mid-bring-up", func(t *testing.T) {
		w := newWorld(t, 1)
		s := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 100*time.Millisecond)
		var dropped, later outcome
		w.mh.ConnectForeign(s, dropped.done)
		w.run(50 * time.Millisecond)
		w.mh.Disconnect(s)
		w.run(time.Second) // the aborted bring-up's timer comes and goes
		if dropped.calls != 0 || s.Ready() || s.Iface().Up() || w.freeOps() != 0 {
			t.Fatalf("dropped chain: %+v ready=%v up=%v, %d records returned", dropped, s.Ready(), s.Iface().Up(), w.freeOps())
		}
		w.mh.ConnectForeign(s, later.done)
		w.run(time.Second)
		if !later.ok() || dropped.calls != 0 || w.mh.CareOf() != s.Addr() || w.freeOps() != 1 {
			t.Fatalf("later switch %+v, dropped %+v, care-of %v, %d records returned", later, dropped, w.mh.CareOf(), w.freeOps())
		}
	})

	t.Run("superseded mid-registration", func(t *testing.T) {
		w := newWorld(t, 1)
		a := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 0)
		b := w.staticIface("s1", w.forB, "10.3.0.50/24", "10.3.0.1", 0)
		var dropped, winner, later outcome
		w.ha.Crash()
		w.mh.ConnectForeign(a, dropped.done)
		w.run(300 * time.Millisecond) // request out, unanswered, retry armed
		if w.mh.pending == nil || dropped.calls != 0 {
			t.Fatalf("first registration not in flight: pending=%v %+v", w.mh.pending, dropped)
		}
		w.mh.ConnectForeign(b, winner.done)
		w.run(100 * time.Millisecond)
		w.ha.Restart()
		w.run(3 * time.Second)
		if !winner.ok() || dropped.calls != 0 || w.mh.CareOf() != b.Addr() || w.freeOps() != 1 {
			t.Fatalf("winner %+v, dropped %+v, care-of %v, %d records returned", winner, dropped, w.mh.CareOf(), w.freeOps())
		}
		w.mh.ConnectForeign(a, later.done)
		w.run(time.Second)
		if !later.ok() || dropped.calls != 0 || winner.calls != 1 || w.mh.CareOf() != a.Addr() || w.freeOps() != 1 {
			t.Fatalf("later %+v, dropped %+v, winner %+v, care-of %v, %d records returned", later, dropped, winner, w.mh.CareOf(), w.freeOps())
		}
	})
}

// A teardown that lands between two phases stops the walk at its next step:
// nothing more is written on the interface and the caller hears
// ErrIfaceNotReady. The closure chains never looked: the configure step wrote
// the address on the down interface, the stage step the connected route and
// ready = true, Prepare reported nil and ConnectForeign found out at activate.
func TestTeardownBetweenPhasesStopsTheWalk(t *testing.T) {
	for _, c := range []struct {
		name  string
		after time.Duration // into the walk, from an up device
		span  string        // the phase that was open
	}{
		{"between bring-up and configure", phaseDelay / 2, kSpanConfigure},
		{"between configure and stage", phaseDelay + phaseDelay/2, kSpanRoute},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := newWorld(t, 1)
			s := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 0)
			s.Iface().Device().BringUp(nil)
			w.run(0)
			var prepared outcome
			w.mh.Prepare(s, prepared.done)
			w.run(c.after)
			w.mh.Disconnect(s)
			w.run(time.Second)
			if prepared.calls != 1 || !errors.Is(prepared.err, ErrIfaceNotReady) {
				t.Fatalf("Prepare: %+v, want ErrIfaceNotReady once", prepared)
			}
			if s.Ready() || !s.Addr().IsUnspecified() || !s.Iface().Addr().IsUnspecified() || w.mh.host.Routes().Len() != 0 {
				t.Fatalf("written after the teardown: ready=%v addr %v / %v, routes:\n%v",
					s.Ready(), s.Addr(), s.Iface().Addr(), w.mh.host.Routes())
			}
			spans := w.tr.FindSpans(c.span)
			if last := spans[len(spans)-1]; last.Open() {
				t.Fatalf("the open %s span was left open", c.span)
			} else if v, _ := last.Attr("err"); v != ErrIfaceNotReady.Error() {
				t.Fatalf("%s span err = %q", c.span, v)
			}
			if w.freeOps() != 1 {
				t.Fatalf("%d records returned", w.freeOps())
			}

			// The interface is as a teardown leaves it: the next switch works.
			var later outcome
			w.mh.ConnectForeign(s, later.done)
			w.run(time.Second)
			if !later.ok() || w.mh.CareOf() != s.Addr() {
				t.Fatalf("later switch %+v, care-of %v", later, w.mh.CareOf())
			}
		})
	}

	// activate's own check, then the switch step's: the staged interface goes
	// down while the route change is being charged.
	w := newWorld(t, 1)
	s := w.staticIface("s0", w.forA, "10.2.0.50/24", "10.2.0.1", 0)
	var connected outcome
	w.mh.ConnectForeign(s, connected.done)
	w.run(2*phaseDelay + phaseDelay/2)
	if !s.Ready() || connected.calls != 0 {
		t.Fatalf("not mid-switch: ready=%v %+v", s.Ready(), connected)
	}
	w.mh.Disconnect(s)
	w.run(time.Second)
	if connected.calls != 1 || !errors.Is(connected.err, ErrIfaceNotReady) || w.mh.Active() != nil || w.mh.Stats().RegRequestsSent != 0 {
		t.Fatalf("ConnectForeign torn down before the switch: %+v active %v stats %+v", connected, nameOf(w.mh.Active()), w.mh.Stats())
	}
}

// TestMakeBeforeBreakThenDisconnect is an upgrade between two foreign
// links: registered on foreignA through eth1, the host makes before break
// onto eth2 on foreignB, then disconnects eth1. The new link carries the
// registration and the traffic; the old one keeps no routes.
func TestMakeBeforeBreakThenDisconnect(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	eth2dev := link.NewDevice(w.loop, "mh-eth2", 0, 0)
	eth2dev.Attach(w.forB)
	eth2, err := w.mh.AddInterface("eth2", eth2dev, false, nil)
	if err != nil {
		t.Fatal(err)
	}

	done := false
	w.mh.MakeBeforeBreak(eth2, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		done = true
	})
	w.run(10 * time.Second)
	if !done {
		t.Fatal("MakeBeforeBreak never finished")
	}
	viaEth1 := func() bool { return strings.Contains(w.mh.Host().Routes().String(), " dev eth1 ") }
	if !viaEth1() {
		t.Fatal("the old link lost its routes before Disconnect")
	}
	w.mh.Disconnect(w.eth1)

	if w.mh.Active() != eth2 || !w.mh.Registered() {
		t.Fatalf("active=%v registered=%v, want eth2 registered", nameOf(w.mh.Active()), w.mh.Registered())
	}
	if !ip.MustParsePrefix("10.3.0.0/24").Contains(w.mh.CareOf()) {
		t.Fatalf("care-of %v, want one on foreignB", w.mh.CareOf())
	}
	if viaEth1() {
		t.Fatalf("routes left on eth1 after Disconnect:\n%s", w.mh.Host().Routes())
	}

	served, from := w.udpEchoServer(7)
	echoes := 0
	cli, _ := w.mhTS.UDP(ip.Unspecified, 0, func(transport.Datagram) { echoes++ })
	cli.SendTo(ip.MustParseAddr(wCHAddr), 7, []byte("upgraded"))
	w.run(3 * time.Second)
	if *served != 1 || echoes != 1 || *from != ip.MustParseAddr(wHomeAddr) {
		t.Fatalf("echo over eth2: served %d from %v, %d echoes back", *served, *from, echoes)
	}
	if enc := w.ha.Tunnel().Stats().Encapsulated; enc == 0 {
		t.Fatal("the echo did not come back through the home agent's tunnel")
	}
}
