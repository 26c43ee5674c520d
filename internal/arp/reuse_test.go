package arp

import (
	"testing"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// A resolution's record — its queue, its retry callback — goes back to the
// cache when a reply or the last timeout ends it, and the next miss takes it.
// These tests are the guards: the record must come back clean, and nothing of
// the resolution it served may reach the one it serves next.

// freePending counts the records on c's free list and checks each is clean.
func freePending(t *testing.T, c *Cache) (n int) {
	t.Helper()
	for p := c.freePend; p != nil; p = p.free {
		if len(p.payloads) != 0 || p.tries != 0 || p.timer.Active() || p.retry == nil || p.c != c {
			t.Fatalf("free record %d is not clean: %+v", n, *p)
		}
		for _, q := range p.payloads[:cap(p.payloads)] {
			if q.payload != nil {
				t.Fatalf("free record %d still holds a queued payload", n)
			}
		}
		n++
	}
	return n
}

func TestResolutionReusesItsRecord(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	c := newHost(t, loop, n, "c", "10.0.0.3", Config{})

	a.cache.SendIP(b.addrs[0], []byte("b1"), 0)
	a.cache.SendIP(b.addrs[0], []byte("b2"), 0)
	first := a.cache.pend[b.addrs[0]]
	if first == nil || first.dst != b.addrs[0] || len(first.payloads) != 2 {
		t.Fatalf("resolution of b: %+v", first)
	}
	loop.RunFor(time.Second)
	if len(b.rxIP) != 2 || len(a.cache.pend) != 0 || freePending(t, a.cache) != 1 || a.cache.freePend != first {
		t.Fatalf("after b's reply: b received %d, %d pending, %d free", len(b.rxIP), len(a.cache.pend), freePending(t, a.cache))
	}

	// The next miss walks the same record, and a second one beside it its own.
	a.cache.SendIP(c.addrs[0], []byte("c1"), 0)
	a.cache.SendIP(ip.MustParseAddr("10.0.0.99"), []byte("nobody"), 0)
	if got := a.cache.pend[c.addrs[0]]; got != first || got.dst != c.addrs[0] || got.tries != 1 || len(got.payloads) != 1 {
		t.Fatalf("resolution of c did not take the returned record: %+v (first %p)", got, first)
	}
	if other := a.cache.pend[ip.MustParseAddr("10.0.0.99")]; other == nil || other == first {
		t.Fatalf("two resolutions in flight share a record: %p", other)
	}
	loop.RunFor(10 * time.Second)
	st := a.cache.Stats()
	if len(c.rxIP) != 1 || len(b.rxIP) != 2 {
		t.Fatalf("c received %d packets, b %d", len(c.rxIP), len(b.rxIP))
	}
	if st.RequestsSent != 2+3 || st.ResolveFailures != 1 || st.PacketsDropped != 1 || freePending(t, a.cache) != 2 {
		t.Fatalf("after c's reply and nobody's timeout: %+v, %d free", st, freePending(t, a.cache))
	}
}

// A resolution that failed returns its record with its tries spent; the next
// one to walk it gets the full retry budget, and a late reply to the failed
// one neither flushes nor learns into the new one's queue.
func TestFailedResolutionReturnsItsRecord(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	cfg := Config{RequestTimeout: 100 * time.Millisecond, MaxRetries: 3}
	a := newHost(t, loop, n, "a", "10.0.0.1", cfg)
	gone, other := ip.MustParseAddr("10.0.0.98"), ip.MustParseAddr("10.0.0.99")

	a.cache.SendIP(gone, []byte("lost"), 0)
	rec := a.cache.pend[gone]
	loop.RunFor(time.Second)
	if st := a.cache.Stats(); st.RequestsSent != 3 || st.ResolveFailures != 1 || st.PacketsDropped != 1 || a.cache.freePend != rec {
		t.Fatalf("after the failure: %+v, free %p want %p", st, a.cache.freePend, rec)
	}
	freePending(t, a.cache)

	a.cache.SendIP(other, []byte("also lost"), 0)
	if a.cache.pend[other] != rec {
		t.Fatal("the next resolution did not take the returned record")
	}
	// The host the first resolution wanted appears and answers at last.
	late := newHost(t, loop, n, "late", "10.0.0.98", cfg)
	late.cache.Gratuitous(gone, late.dev.HW())
	loop.RunFor(50 * time.Millisecond)
	if p := a.cache.pend[other]; p != rec || len(p.payloads) != 1 || p.tries != 1 {
		t.Fatalf("a late word from %v disturbed the resolution of %v: %+v", gone, other, p)
	}
	loop.RunFor(time.Second)
	if st := a.cache.Stats(); st.RequestsSent != 6 || st.ResolveFailures != 2 || st.PacketsDropped != 2 {
		t.Fatalf("the second resolution did not get its own three tries: %+v", st)
	}
}

// A miss that is answered allocates nothing once the record, the map and the
// pools are warm: no pending, no retry closure, no message, no marshal slice.
func TestResolutionAllocatesNothing(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	a := newHost(t, loop, n, "a", "10.0.0.1", Config{})
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	b.dev.SetReceiver(func(f *link.Frame) {
		if f.Type == link.EtherTypeARP {
			b.cache.HandleFrame(f)
		}
	})
	resolve := func() {
		a.cache.Delete(b.addrs[0])
		a.cache.SendIP(b.addrs[0], bufpool.For(loop).Get(64), 0)
		loop.RunFor(time.Second)
	}
	resolve()
	before := a.cache.Stats().RequestsSent
	if got := testing.AllocsPerRun(100, resolve); got != 0 {
		t.Fatalf("a resolution allocates %.1f objects, want 0", got)
	}
	if sent := a.cache.Stats().RequestsSent - before; sent != 101 {
		t.Fatalf("%d requests over 101 resolutions", sent)
	}
}
