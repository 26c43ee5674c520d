package app

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// refHTTPParser and refFrameReader are the parsers as they stood before they
// consumed by offset: the whole buffer converted to a string to find the
// head, the head split into lines, the buffer front-sliced after each
// message. They are the oracle TestParsersMatchReference holds the in-place
// parsers to.
type refHTTPParser struct{ buf []byte }

func (p *refHTTPParser) feed(chunk []byte, deliver httpDeliver) bool {
	p.buf = append(p.buf, chunk...)
	for {
		head := strings.Index(string(p.buf), "\r\n\r\n")
		if head < 0 {
			return len(p.buf) <= maxHTTPHead
		}
		if head > maxHTTPHead {
			return false
		}
		lines := strings.Split(string(p.buf[:head]), "\r\n")
		clen := 0
		for _, l := range lines[1:] {
			if v, ok := strings.CutPrefix(l, "Content-Length:"); ok {
				n, err := strconv.Atoi(strings.TrimSpace(v))
				if err != nil || n < 0 || n > maxFrameBody {
					return false
				}
				clen = n
			}
		}
		total := head + 4 + clen
		if len(p.buf) < total {
			return true
		}
		body := make([]byte, clen)
		copy(body, p.buf[head+4:total])
		start := lines[0]
		p.buf = p.buf[total:]
		deliver(start, body)
	}
}

type refFrameReader struct{ buf []byte }

func (r *refFrameReader) Feed(chunk []byte, deliver frameDeliver) bool {
	r.buf = append(r.buf, chunk...)
	for len(r.buf) >= frameHeaderLen {
		n := int(binary.BigEndian.Uint16(r.buf[2:4]))
		if n > maxFrameBody {
			return false
		}
		if len(r.buf) < frameHeaderLen+n {
			return true
		}
		typ, flags := r.buf[0], r.buf[1]
		body := make([]byte, n)
		copy(body, r.buf[frameHeaderLen:frameHeaderLen+n])
		r.buf = r.buf[frameHeaderLen+n:]
		deliver(typ, flags, body)
	}
	return true
}

// runHTTP and runFrames feed a stream cut at the given chunk sizes (cycled;
// a zero counts as one byte) until it ends or the parser rejects it, and
// return every delivery rendered as one string each, plus the verdict.
func runHTTP(feed func([]byte, httpDeliver) bool, stream []byte, sizes []int) (got []string, ok bool) {
	deliver := func(start string, body []byte) { got = append(got, fmt.Sprintf("%q %x", start, body)) }
	return got, feedChunks(stream, sizes, func(chunk []byte) bool { return feed(chunk, deliver) })
}

func runFrames(feed func([]byte, frameDeliver) bool, stream []byte, sizes []int) (got []string, ok bool) {
	deliver := func(typ, flags byte, body []byte) { got = append(got, fmt.Sprintf("%d %d %x", typ, flags, body)) }
	return got, feedChunks(stream, sizes, func(chunk []byte) bool { return feed(chunk, deliver) })
}

func feedChunks(stream []byte, sizes []int, feed func([]byte) bool) bool {
	for i := 0; len(stream) > 0; i++ {
		n := len(stream)
		if len(sizes) > 0 {
			n = min(max(sizes[i%len(sizes)], 1), n)
		}
		if !feed(stream[:n]) {
			return false
		}
		stream = stream[n:]
	}
	return true
}

func sameDeliveries(t *testing.T, what string, got []string, gotOK bool, want []string, wantOK bool) {
	t.Helper()
	if gotOK != wantOK || len(got) != len(want) {
		t.Fatalf("%s: %d deliveries, ok=%v; want %d, ok=%v", what, len(got), gotOK, len(want), wantOK)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: delivery %d differs:\n got %.80s\nwant %.80s", what, i, got[i], want[i])
		}
	}
}

// randomSizes draws a chunking: mostly segment-sized, sometimes tiny.
func randomSizes(rng *rand.Rand) []int {
	sizes := make([]int, 1+rng.Intn(8))
	for i := range sizes {
		if rng.Intn(3) == 0 {
			sizes[i] = 1 + rng.Intn(7)
		} else {
			sizes[i] = 1 + rng.Intn(1500)
		}
	}
	return sizes
}

// TestParsersMatchReference holds both in-place parsers to the ones they
// replaced: for seeded random streams — valid, truncated, with an oversized
// head or frame, with a Content-Length no message may have — cut into seeded
// random chunks, the same deliveries in the same order and the same verdict.
// (Heads within four bytes of maxHTTPHead are the one place the two differ on
// purpose; TestHTTPHeadBoundIgnoresChunking has that case.)
func TestParsersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	body := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	lengths := []string{"abc", "-5", "40000", "99999999999999999999", "", "+7", "  12  ", "0x10", "1 2"}
	for round := 0; round < 400; round++ {
		var http, frames []byte
		for m := rng.Intn(6); m >= 0; m-- {
			switch rng.Intn(12) {
			case 0: // a header the message does not need, and a second Content-Length that wins
				http = fmt.Appendf(http, "PUT /x%d MNET/1.0\r\nX-Pad: %d\r\nContent-Length: 3\r\nContent-Length:7\r\n\r\n", m, m)
				http = append(http, body(7)...)
			case 1: // Content-Length values, most of them not lengths
				http = fmt.Appendf(http, "POST /bad MNET/1.0\r\nContent-Length:%s\r\n\r\n", lengths[rng.Intn(len(lengths))])
				http = append(http, body(12)...)
			case 2: // a head far over the bound
				http = append(http, bytes.Repeat([]byte("h"), maxHTTPHead+200+rng.Intn(2000))...)
				http = append(http, "\r\n\r\n"...)
			case 3: // no header lines at all
				http = append(http, "\r\n\r\nGET / MNET/1.0\r\n\r\n"...)
			default:
				http = appendHTTPRequest(http, "POST", "/p"+strconv.Itoa(m), body(rng.Intn(6000)))
			}
			switch rng.Intn(12) {
			case 0:
				frames = append(frames, byte(m), 0, 0x80, byte(1+rng.Intn(255))) // announces more than maxFrameBody
			case 1:
				frames = encodeFrame(frames, mqttPublish, pubFlagQoS1, body(maxFrameBody))
			default:
				frames = encodeFrame(frames, byte(rng.Intn(12)), byte(rng.Intn(8)), body(rng.Intn(1200)))
			}
		}
		if rng.Intn(3) == 0 { // truncated mid-message
			http = http[:rng.Intn(len(http)+1)]
			frames = frames[:rng.Intn(len(frames)+1)]
		}
		sizes := randomSizes(rng)
		var p httpParser
		var refP refHTTPParser
		got, ok := runHTTP(p.feed, http, sizes)
		want, wantOK := runHTTP(refP.feed, http, sizes)
		sameDeliveries(t, fmt.Sprintf("round %d, http, chunks %v", round, sizes), got, ok, want, wantOK)

		var r frameReader
		var refR refFrameReader
		got, ok = runFrames(r.Feed, frames, sizes)
		want, wantOK = runFrames(refR.Feed, frames, sizes)
		sameDeliveries(t, fmt.Sprintf("round %d, frames, chunks %v", round, sizes), got, ok, want, wantOK)
	}
}

// TestHTTPHeadBoundIgnoresChunking: a head of exactly maxHTTPHead bytes is
// legal, and stays legal when a chunk boundary falls inside its terminator.
// The parser this one replaced judged "no terminator yet" by the bytes
// buffered alone, so the same stream was accepted whole and rejected when
// the boundary fell there.
func TestHTTPHeadBoundIgnoresChunking(t *testing.T) {
	start := "GET /" + strings.Repeat("a", maxHTTPHead-len("GET / MNET/1.0")) + " MNET/1.0"
	stream := []byte(start + "\r\n\r\n")
	for cut := maxHTTPHead; cut <= len(stream); cut++ {
		var p httpParser
		got, ok := runHTTP(p.feed, stream, []int{cut, len(stream)})
		if !ok || len(got) != 1 {
			t.Fatalf("cut at %d: %d deliveries, ok=%v", cut, len(got), ok)
		}
	}
	var p httpParser
	if _, ok := runHTTP(p.feed, append([]byte("x"), stream...), []int{maxHTTPHead + 2, len(stream)}); ok {
		t.Fatal("a head one byte over the bound was accepted")
	}
}

// TestParserPartialChunkDoesNotAllocate: a chunk that completes no message —
// four of the five segments of a 4 KB body — is appended in place and
// scanned in place.
func TestParserPartialChunkDoesNotAllocate(t *testing.T) {
	msg := appendHTTPRequest(nil, "POST", "/work", make([]byte, 4096))
	frame := encodeFrame(nil, mqttPublish, 0, make([]byte, 4096))
	var p httpParser
	var r frameReader
	p.feed(msg, func(string, []byte) {}) // size both buffers
	r.Feed(frame, func(byte, byte, []byte) {})
	allocs := testing.AllocsPerRun(100, func() {
		for off := 0; off < 4000; off += 1000 {
			p.feed(msg[off:off+1000], nil)
			r.Feed(frame[off:off+1000], nil)
		}
		p.buf, r.buf = p.buf[:0], r.buf[:0]
	})
	if allocs != 0 {
		t.Fatalf("feeding partial messages allocates %.1f times", allocs)
	}
}

// TestDrainedParsersReleaseBuffer: a connection that has received one 32 KB
// message and is idle again must not keep the buffer that message needed.
// The front-slicing parsers did, through a zero-length tail; with 64
// connections that is over 2 MB still live, which is what the heap assertion
// catches there.
func TestDrainedParsersReleaseBuffer(t *testing.T) {
	msg := appendHTTPRequest(nil, "POST", "/big", make([]byte, maxFrameBody))
	frame := encodeFrame(nil, mqttPublish, 0, make([]byte, maxFrameBody))
	parsers := make([]httpParser, 64)
	readers := make([]frameReader, 64)
	before := liveHeap()
	for i := range parsers {
		if ok := feedChunks(msg, []int{1000}, func(c []byte) bool { return parsers[i].feed(c, func(string, []byte) {}) }); !ok {
			t.Fatal("message rejected")
		}
		if ok := feedChunks(frame, []int{1000}, func(c []byte) bool { return readers[i].Feed(c, func(byte, byte, []byte) {}) }); !ok {
			t.Fatal("frame rejected")
		}
		if cap(parsers[i].buf) > streamBufKeep || cap(readers[i].buf) > streamBufKeep {
			t.Fatalf("drained parsers keep %d and %d bytes (limit %d)", cap(parsers[i].buf), cap(readers[i].buf), streamBufKeep)
		}
	}
	if after := liveHeap(); after > before+1<<20 {
		t.Fatalf("live heap grew %d bytes across 128 drained parsers", after-before)
	}
	runtime.KeepAlive(parsers)
	runtime.KeepAlive(readers)
}

// liveHeap returns the bytes reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// FuzzHTTPParser and FuzzFrameReader: however a stream is cut into chunks,
// the parser delivers what it delivers when fed the stream whole, reaches
// the same verdict, and does not panic.
func FuzzHTTPParser(f *testing.F) {
	f.Add(appendHTTPRequest(appendHTTPRequest(nil, "POST", "/a", []byte("12345")), "GET", "/b", nil), []byte{3, 1, 40})
	f.Add(appendHTTPResponse(nil, 200, make([]byte, 300)), []byte{255, 0})
	f.Add([]byte("GET / MNET/1.0\r\nContent-Length: -1\r\n\r\n"), []byte{7})
	f.Add(append(bytes.Repeat([]byte("h"), maxHTTPHead), "\r\n\r\n"...), []byte{255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 255, 18})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var whole, split httpParser
		want, wantOK := runHTTP(whole.feed, stream, nil)
		got, ok := runHTTP(split.feed, stream, chunkSizes(cuts))
		sameDeliveries(t, "split against whole", got, ok, want, wantOK)
	})
}

func FuzzFrameReader(f *testing.F) {
	f.Add(encodeFrame(encodeFrame(nil, 3, 0x5, []byte("hello")), 4, 0, nil), []byte{1})
	f.Add(appendPublish(nil, pubFlagQoS1, "t/1", 9, make([]byte, 600)), []byte{200, 3})
	f.Add([]byte{1, 0, 0xFF, 0xFF, 1, 2, 3}, []byte{2})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		var whole, split frameReader
		want, wantOK := runFrames(whole.Feed, stream, nil)
		got, ok := runFrames(split.Feed, stream, chunkSizes(cuts))
		sameDeliveries(t, "split against whole", got, ok, want, wantOK)
	})
}

// chunkSizes turns fuzz bytes into chunk sizes; none means byte by byte.
func chunkSizes(cuts []byte) []int {
	sizes := make([]int, max(len(cuts), 1))
	for i, c := range cuts {
		sizes[i] = int(c)
	}
	return sizes
}
