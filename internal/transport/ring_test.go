package transport

import (
	"bytes"
	"crypto/sha256"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"mosquitonet/internal/link"
)

// TestSendRingMatchesSlice drives the ring and the send buffer it replaced —
// a plain slice, appended to and front-sliced — through one seeded schedule
// of writes, peeks and discards, and requires the same bytes from both at
// every step. The schedule swings between filling and draining so that every
// branch of the ring is on the path: a peek that wraps, a doubling while the
// held bytes wrap, and the release of a large array on drain.
func TestSendRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var r sendRing
	var ref []byte
	var wrappedPeeks, wrappedGrows, releases int
	for step := 0; step < 40_000; step++ {
		filling := step%2_000 < 500 // then three times as long to drain it all
		op := rng.Intn(10)
		switch {
		case op < 3: // peek
			if len(ref) == 0 {
				continue
			}
			off := rng.Intn(len(ref))
			n := 1 + rng.Intn(min(len(ref)-off, MSS))
			a, b := r.peek(off, n)
			if got := append(append([]byte(nil), a...), b...); !bytes.Equal(got, ref[off:off+n]) {
				t.Fatalf("step %d: peek(%d, %d) differs from the slice (head %d, held %d, array %d)", step, off, n, r.head, r.n, len(r.buf))
			}
			if len(b) > 0 {
				wrappedPeeks++
			}
		case (op < 8) == filling: // write: five in seven while filling, two in seven while draining
			p := make([]byte, rng.Intn(3*MSS))
			rng.Read(p) // not a counter: its period would divide the array's size and hide stale bytes
			if r.n+len(p) > len(r.buf) && r.head+r.n > len(r.buf) {
				wrappedGrows++
			}
			r.write(p)
			ref = append(ref, p...)
		default: // discard
			n := rng.Intn(min(len(ref), 3*MSS) + 1)
			large := len(r.buf) > sendRingKeep
			r.discard(n)
			ref = ref[n:]
			if large && r.buf == nil {
				releases++
			}
		}
		if r.n != len(ref) {
			t.Fatalf("step %d: ring holds %d bytes, slice %d", step, r.n, len(ref))
		}
		if size := len(r.buf); size&(size-1) != 0 || r.n > size {
			t.Fatalf("step %d: array of %d bytes holding %d", step, size, r.n)
		}
		if r.n == 0 && len(r.buf) > sendRingKeep {
			t.Fatalf("step %d: drained ring keeps %d bytes", step, len(r.buf))
		}
	}
	if wrappedPeeks == 0 || wrappedGrows == 0 || releases == 0 {
		t.Fatalf("schedule missed a branch: %d wrapped peeks, %d doublings while wrapped, %d releases", wrappedPeeks, wrappedGrows, releases)
	}
}

// TestSendRingSteadyStateDoesNotAllocate: once the array fits the window in
// flight, a write followed by the ACK that releases it allocates nothing,
// wherever in the array the bytes fall.
func TestSendRingSteadyStateDoesNotAllocate(t *testing.T) {
	var r sendRing
	seg := make([]byte, MSS)
	r.write(seg)
	allocs := testing.AllocsPerRun(1000, func() {
		r.write(seg)
		r.peek(0, MSS)
		r.discard(MSS)
	})
	if allocs != 0 {
		t.Fatalf("write-then-ack allocates %.1f times", allocs)
	}
}

// TestStreamSegmentsAcrossRingWrap: a producer that writes a little ahead of
// the ACKs walks the ring's head around a small array, so segments start
// near its end and continue at its front; each must go out whole.
func TestStreamSegmentsAcrossRingWrap(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, srv := establish(t, p, 80)
	var rcvd, sent bytes.Buffer
	srv.OnData = func(b []byte) { rcvd.Write(b) }
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 400; i++ {
		chunk := make([]byte, 1+rng.Intn(1700))
		rng.Read(chunk)
		sent.Write(chunk)
		if err := c.Write(chunk); err != nil {
			t.Fatal(err)
		}
		p.loop.RunFor(time.Duration(rng.Intn(4000)) * time.Microsecond)
	}
	p.loop.RunFor(5 * time.Second)
	if !bytes.Equal(rcvd.Bytes(), sent.Bytes()) {
		t.Fatalf("received %d bytes, corrupted or short (want %d)", rcvd.Len(), sent.Len())
	}
	// A segment cut short at the array's end would be repaired by a
	// retransmission; on a lossless link there must be none.
	if st := c.Stats(); st.Retransmits != 0 || st.BytesSent != uint64(sent.Len()) {
		t.Fatalf("lossless link: %d retransmissions, %d bytes sent for %d written", st.Retransmits, st.BytesSent, sent.Len())
	}
	if size := len(c.snd.buf); size > 16<<10 {
		t.Fatalf("the send buffer grew to %d bytes; the schedule was meant to keep it small enough to wrap", size)
	}
}

// TestArmTimerDoesNotAllocate: the retransmission timer is re-armed on every
// ACK, so scheduling it must not build a fresh method value each time. (A
// second entry keeps the lane's bucket alive across the Stop; the bucket's
// own objects are the lane's business.)
func TestArmTimerDoesNotAllocate(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, _ := establish(t, p, 80)
	c.Write(make([]byte, MSS)) // in flight until the loop runs again
	p.loop.Lane(rtoLaneGranularity).Schedule(c.RTO(), func() {})
	if allocs := testing.AllocsPerRun(1000, c.armTimer); allocs != 0 {
		t.Fatalf("armTimer allocates %.1f times", allocs)
	}
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestDrainedConnReleasesSendBuffer: Write never refuses, so 2 MB written
// against a 10 Mbit/s peer sits in the send buffer, visibly (Buffered,
// SendBufPeak) — and once it has drained, the open connection must not keep
// the megabytes reachable. The slice this replaced was front-sliced on every
// ACK, so a drained connection pinned its high-water array through a
// zero-length tail: the heap assertion fails there with 2 MB still live.
func TestDrainedConnReleasesSendBuffer(t *testing.T) {
	m := link.Ethernet()
	m.BitRate = 10_000_000
	p := newPair(t, m, 1)
	c, srv := establish(t, p, 80)
	sum := sha256.New()
	srv.OnData = func(b []byte) { sum.Write(b) }
	before := liveHeap()

	data := make([]byte, 2<<20)
	rand.New(rand.NewSource(2)).Read(data)
	want := sha256.Sum256(data)
	if err := c.Write(data); err != nil {
		t.Fatal(err)
	}
	data = nil
	p.loop.RunFor(100 * time.Millisecond)
	if got := c.Buffered(); got < 1<<20 || got >= 2<<20 {
		t.Fatalf("Buffered = %d shortly after writing 2 MB", got)
	}
	p.loop.RunFor(time.Minute)
	if !bytes.Equal(sum.Sum(nil), want[:]) {
		t.Fatal("stream corrupted or short")
	}
	if c.Buffered() != 0 || c.Stats().SendBufPeak != 2<<20 {
		t.Fatalf("after the drain: Buffered = %d, SendBufPeak = %d, want 0 and %d", c.Buffered(), c.Stats().SendBufPeak, 2<<20)
	}
	if kept := cap(c.snd.buf); kept > sendRingKeep {
		t.Fatalf("drained connection keeps a %d-byte send buffer (limit %d)", kept, sendRingKeep)
	}
	if after := liveHeap(); after > before+512<<10 {
		t.Fatalf("live heap grew %d bytes across a drained 2 MB transfer", after-before)
	}
	if c.State() != StateEstablished { // the connection is still open, and reachable here
		t.Fatalf("state %v", c.State())
	}
}
