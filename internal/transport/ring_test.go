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

// TestSendRingMatchesSlice drives the block queue and its model — a plain
// slice, appended to and front-sliced — through one seeded schedule of
// writes, peeks and discards, and requires the same bytes from both at every
// step, no block held that the held bytes do not need, and no more than
// sendRingKeep kept by a drained ring. The schedule swings between filling
// and draining so that every branch is on the path: a peek that crosses into
// the next block, a write that takes several blocks, the index array sliding
// down, the free list filling and overflowing, and the release on drain.
func TestSendRingMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	r := newSendRing()
	var ref []byte
	var crossingPeeks, multiBlockWrites, slides, reuses, overflows, drains int
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
				t.Fatalf("step %d: peek(%d, %d) differs from the model (head %d+%d, held %d, %d blocks)", step, off, n, r.head, r.off, r.n, len(r.blocks))
			}
			if len(b) > 0 {
				crossingPeeks++
			}
		case (op < 8) == filling: // write: five in seven while filling, two in seven while draining
			size := rng.Intn(3 * MSS)
			if rng.Intn(8) == 0 {
				size = rng.Intn(3 * sendBlockSize) // an application message, not a segment
			}
			p := make([]byte, size)
			rng.Read(p) // not a counter: its period would divide the block size and hide stale bytes
			before, head, free := len(r.blocks)-r.head, r.head, r.free.Free()
			r.write(p)
			ref = append(ref, p...)
			took := len(r.blocks) - r.head - before
			if took > 1 {
				multiBlockWrites++
			}
			if head > 0 && r.head == 0 {
				slides++
			}
			reuses += free - r.free.Free()
		default: // discard
			n := rng.Intn(min(len(ref), 3*MSS) + 1)
			full := r.free.Free() == sendFreeMax
			held := len(r.blocks) - r.head
			r.discard(n)
			ref = ref[n:]
			if full && len(r.blocks)-r.head < held {
				overflows++
			}
			if len(ref) == 0 && n > 0 {
				drains++
			}
		}
		if r.n != len(ref) {
			t.Fatalf("step %d: ring holds %d bytes, model %d", step, r.n, len(ref))
		}
		if r.off >= sendBlockSize || (r.n == 0 && r.off != 0) {
			t.Fatalf("step %d: oldest byte at offset %d of its block, %d held", step, r.off, r.n)
		}
		if held, need := len(r.blocks)-r.head, (r.off+r.n+sendBlockSize-1)/sendBlockSize; held != need {
			t.Fatalf("step %d: %d blocks held for %d bytes at offset %d, want %d", step, held, r.n, r.off, need)
		}
		for i, b := range r.blocks {
			if (b == nil) != (i < r.head) {
				t.Fatalf("step %d: index slot %d of %d (head %d) is nil: %v", step, i, len(r.blocks), r.head, b == nil)
			}
		}
		if r.free.Free() > sendFreeMax {
			t.Fatalf("step %d: %d blocks on the free list (limit %d)", step, r.free.Free(), sendFreeMax)
		}
		if r.n == 0 && cap(r.blocks) > sendFreeMax {
			t.Fatalf("step %d: drained ring keeps an index array of %d", step, cap(r.blocks))
		}
	}
	if crossingPeeks == 0 || multiBlockWrites == 0 || slides == 0 || reuses == 0 || overflows == 0 || drains == 0 {
		t.Fatalf("schedule missed a branch: %d crossing peeks, %d multi-block writes, %d slides, %d reuses, %d free-list overflows, %d drains",
			crossingPeeks, multiBlockWrites, slides, reuses, overflows, drains)
	}
}

// TestSendRingBacklogAllocatedOnce: a 3 MB backlog written a message at a
// time costs its own size in blocks plus the index array — not the 2× of a
// buffer that doubles and copies — and once it has drained the ring holds
// sendRingKeep at most.
func TestSendRingBacklogAllocatedOnce(t *testing.T) {
	const backlog = 3 << 20
	msg := make([]byte, 4123)
	r := newSendRing()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r.n < backlog {
		r.write(msg)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > backlog*11/10 {
		t.Fatalf("a %d-byte backlog allocated %d bytes (%.2f×)", r.n, got, float64(got)/float64(r.n))
	}
	for r.n > 0 {
		r.discard(min(r.n, MSS))
	}
	if len(r.blocks) != 0 || cap(r.blocks) > sendFreeMax || r.free.Free() != sendFreeMax {
		t.Fatalf("drained: %d blocks queued, index array of %d, %d free (limit %d)", len(r.blocks), cap(r.blocks), r.free.Free(), sendFreeMax)
	}
}

// TestSendRingSteadyStateDoesNotAllocate: once the array fits the window in
// flight, a write followed by the ACK that releases it allocates nothing,
// wherever in the array the bytes fall.
func TestSendRingSteadyStateDoesNotAllocate(t *testing.T) {
	r := newSendRing()
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
// the ACKs keeps the send buffer a few blocks long, so segments start near
// the end of one block and wrap into the next; each must go out whole.
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
	// A segment cut short at a block's end would be repaired by a
	// retransmission; on a lossless link there must be none.
	if st := c.Stats(); st.Retransmits != 0 || st.BytesSent != uint64(sent.Len()) {
		t.Fatalf("lossless link: %d retransmissions, %d bytes sent for %d written", st.Retransmits, st.BytesSent, sent.Len())
	}
	if peak := c.Stats().SendBufPeak; peak > 16<<10 {
		t.Fatalf("the send buffer grew to %d bytes; the schedule was meant to keep it to a few blocks", peak)
	}
}

// TestArmTimerDoesNotAllocate: the retransmission timer is re-armed on every
// ACK, so scheduling it must not build a fresh method value each time, and
// the lane must hand the bucket the Stop released straight back.
func TestArmTimerDoesNotAllocate(t *testing.T) {
	p := newPair(t, link.Ethernet(), 1)
	c, _ := establish(t, p, 80)
	c.Write(make([]byte, MSS)) // in flight until the loop runs again
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
// the megabytes reachable: its free list holds sendRingKeep at most. (A
// slice front-sliced on every ACK pins its high-water array through a
// zero-length tail; the heap assertion fails there with 2 MB still live.)
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
	if kept := (len(c.snd.blocks) + c.snd.free.Free()) * sendBlockSize; kept > sendRingKeep {
		t.Fatalf("drained connection keeps %d bytes of send buffer (limit %d)", kept, sendRingKeep)
	}
	if after := liveHeap(); after > before+512<<10 {
		t.Fatalf("live heap grew %d bytes across a drained 2 MB transfer", after-before)
	}
	if c.State() != StateEstablished { // the connection is still open, and reachable here
		t.Fatalf("state %v", c.State())
	}
}
