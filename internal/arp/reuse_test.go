package arp

import (
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"mosquitonet/internal/bufpool"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/sim"
)

// A resolution's record — its queue, its retry callback — goes back to the
// loop's free list when a reply or the last timeout ends it, and the next
// miss on any cache of the loop takes it. These tests are the guards: the
// record must come back clean, and nothing of the resolution it served may
// reach the one it serves next.

// freePending returns the records on loop's free list, the next to be taken
// first, and checks each is clean. It takes them off the list to look and
// puts them back in their order.
func freePending(t *testing.T, loop *sim.Loop) []*pending {
	t.Helper()
	recs := sim.RecordsOf[pending](loop)
	var free []*pending
	for range recs.Free() {
		p := recs.Take()
		if len(p.payloads) != 0 || p.tries != 0 || p.timer.Active() || p.retry == nil || p.c != nil || p.next != nil {
			t.Fatalf("free record %d is not clean: %+v", len(free), *p)
		}
		for _, q := range p.payloads[:cap(p.payloads)] {
			if q.payload != nil {
				t.Fatalf("free record %d still holds a queued payload", len(free))
			}
		}
		free = append(free, p)
	}
	for i := len(free) - 1; i >= 0; i-- {
		recs.Put(free[i])
	}
	return free
}

// inFlight counts the records on c's pending list and checks none of them
// is also on the loop's free list.
func inFlight(t *testing.T, c *Cache) (n int) {
	t.Helper()
	free := freePending(t, c.dev.Loop())
	for p := c.pend; p != nil; p = p.next {
		if slices.Contains(free, p) {
			t.Fatalf("record for %v is on both lists", p.dst)
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
	first := a.cache.findPending(b.addrs[0])
	if first == nil || first.dst != b.addrs[0] || len(first.payloads) != 2 {
		t.Fatalf("resolution of b: %+v", first)
	}
	loop.RunFor(time.Second)
	if free := freePending(t, loop); len(b.rxIP) != 2 || inFlight(t, a.cache) != 0 || len(free) != 1 || free[0] != first {
		t.Fatalf("after b's reply: b received %d, %d pending, %d free", len(b.rxIP), inFlight(t, a.cache), len(free))
	}

	// The next miss walks the same record, and a second one beside it its own.
	a.cache.SendIP(c.addrs[0], []byte("c1"), 0)
	a.cache.SendIP(ip.MustParseAddr("10.0.0.99"), []byte("nobody"), 0)
	if got := a.cache.findPending(c.addrs[0]); got != first || got.dst != c.addrs[0] || got.tries != 1 || len(got.payloads) != 1 {
		t.Fatalf("resolution of c did not take the returned record: %+v (first %p)", got, first)
	}
	if other := a.cache.findPending(ip.MustParseAddr("10.0.0.99")); other == nil || other == first {
		t.Fatalf("two resolutions in flight share a record: %p", other)
	}
	loop.RunFor(10 * time.Second)
	st := a.cache.Stats()
	if len(c.rxIP) != 1 || len(b.rxIP) != 2 {
		t.Fatalf("c received %d packets, b %d", len(c.rxIP), len(b.rxIP))
	}
	if st.RequestsSent != 2+3 || st.ResolveFailures != 1 || st.PacketsDropped != 1 || len(freePending(t, loop)) != 2 {
		t.Fatalf("after c's reply and nobody's timeout: %+v, %d free", st, len(freePending(t, loop)))
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
	rec := a.cache.findPending(gone)
	loop.RunFor(time.Second)
	if st, free := a.cache.Stats(), freePending(t, loop); st.RequestsSent != 3 || st.ResolveFailures != 1 || st.PacketsDropped != 1 || len(free) != 1 || free[0] != rec {
		t.Fatalf("after the failure: %+v, free %v want [%p]", st, free, rec)
	}

	a.cache.SendIP(other, []byte("also lost"), 0)
	if a.cache.findPending(other) != rec {
		t.Fatal("the next resolution did not take the returned record")
	}
	// The host the first resolution wanted appears and answers at last.
	late := newHost(t, loop, n, "late", "10.0.0.98", cfg)
	late.cache.Gratuitous(gone, late.dev.HW())
	loop.RunFor(50 * time.Millisecond)
	if p := a.cache.findPending(other); p != rec || len(p.payloads) != 1 || p.tries != 1 {
		t.Fatalf("a late word from %v disturbed the resolution of %v: %+v", gone, other, p)
	}
	loop.RunFor(time.Second)
	if st := a.cache.Stats(); st.RequestsSent != 6 || st.ResolveFailures != 2 || st.PacketsDropped != 2 {
		t.Fatalf("the second resolution did not get its own three tries: %+v", st)
	}
}

// A miss that is answered allocates nothing once the record and the pools
// are warm: no pending, no retry closure, no message, no marshal slice.
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

// TestFirstMissAllocatesOnlyItsRecord: a miss that finds the loop's free
// list empty allocates the pending record and its bound retry, and nothing
// more — no table of resolutions, no queue array. A fresh cache's first miss
// on a loop whose list holds a finished record allocates nothing: the records
// are the loop's, not the cache's. The loop's lane, the pools and the link are
// warmed by another cache first.
func TestFirstMissAllocatesOnlyItsRecord(t *testing.T) {
	loop := sim.New(1)
	n := link.NewNetwork(loop, "net", link.Ethernet())
	b := newHost(t, loop, n, "b", "10.0.0.2", Config{})
	fresh := make([]*host, 20)
	for i := range fresh {
		fresh[i] = newHost(t, loop, n, "a", fmt.Sprintf("10.0.1.%d", i+1), Config{})
	}
	warm := newHost(t, loop, n, "w", "10.0.0.3", Config{})
	for range 2 {
		warm.cache.Delete(b.addrs[0])
		warm.cache.SendIP(b.addrs[0], bufpool.For(loop).Get(64), 0)
		loop.RunFor(2 * time.Second)
	}
	// firstMiss is what a's first miss allocates.
	firstMiss := func(a *host) uint64 {
		var before, after runtime.MemStats
		buf := bufpool.For(loop).Get(64)
		runtime.ReadMemStats(&before)
		a.cache.SendIP(b.addrs[0], buf, 0)
		runtime.ReadMemStats(&after)
		if a.cache.pend == nil || a.cache.pend.next != nil {
			t.Fatal("the miss did not start one resolution")
		}
		loop.RunFor(2 * time.Second)
		return after.Mallocs - before.Mallocs
	}
	recs := sim.RecordsOf[pending](loop)
	held := recs.Take() // as if another resolution had the list's one record
	got := firstMiss(fresh[0])
	recs.Put(held)
	if got != 2 {
		t.Fatalf("a miss that finds the loop's list empty allocates %d objects, want 2 (the record and its retry)", got)
	}
	var mallocs uint64
	for _, a := range fresh[1:] {
		mallocs += firstMiss(a)
	}
	if mallocs != 0 {
		t.Fatalf("%d fresh caches' first misses on a warm loop allocated %d objects, want 0", len(fresh)-1, mallocs)
	}
}
