package ip

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func fragSample(size int) *Packet {
	p := &Packet{
		Header: Header{
			ID: 77, TTL: 64, Protocol: ProtoUDP,
			Src: MustParseAddr("36.135.0.1"), Dst: MustParseAddr("36.8.0.100"),
		},
		Payload: make([]byte, size),
	}
	for i := range p.Payload {
		p.Payload[i] = byte(i * 13)
	}
	return p
}

func TestFragmentSmallPacketUnchanged(t *testing.T) {
	p := fragSample(100)
	frags, err := Fragment(p, 1500)
	if err != nil || len(frags) != 1 || frags[0] != p {
		t.Fatalf("small packet fragmented: %d pieces, %v", len(frags), err)
	}
}

func TestFragmentSizesAndOffsets(t *testing.T) {
	p := fragSample(3000)
	frags, err := Fragment(p, 1100)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) != 3 {
		t.Fatalf("pieces = %d", len(frags))
	}
	for i, f := range frags {
		if f.Len() > 1100 {
			t.Fatalf("fragment %d size %d exceeds MTU", i, f.Len())
		}
		last := i == len(frags)-1
		if f.MoreFrag == last {
			t.Fatalf("fragment %d MF=%v", i, f.MoreFrag)
		}
		if !last && len(f.Payload)%8 != 0 {
			t.Fatalf("interior fragment %d payload %d not 8-aligned", i, len(f.Payload))
		}
		if f.ID != p.ID || f.Protocol != p.Protocol || f.Src != p.Src || f.Dst != p.Dst {
			t.Fatalf("fragment %d header fields drifted", i)
		}
	}
	if frags[1].FragOff != uint16(len(frags[0].Payload)/8) {
		t.Fatalf("second offset %d", frags[1].FragOff)
	}
}

func TestFragmentDFRejected(t *testing.T) {
	p := fragSample(3000)
	p.DontFrag = true
	if _, err := Fragment(p, 1100); err != ErrFragNeeded {
		t.Fatalf("err = %v", err)
	}
}

func TestFragmentTinyMTURejected(t *testing.T) {
	if _, err := Fragment(fragSample(100), 21); err != ErrBadMTU {
		t.Fatalf("err = %v", err)
	}
}

func TestReassembleInOrder(t *testing.T) {
	p := fragSample(3000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	for i, f := range frags {
		full, done := r.Add(f)
		if i < len(frags)-1 && done {
			t.Fatal("completed early")
		}
		if i == len(frags)-1 {
			if !done {
				t.Fatal("did not complete")
			}
			if !bytes.Equal(full.Payload, p.Payload) {
				t.Fatal("payload corrupted")
			}
			if full.IsFragment() {
				t.Fatal("reassembled packet still looks like a fragment")
			}
		}
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d", r.Pending())
	}
	if r.Stats().Reassembled != 1 {
		t.Fatalf("stats: %+v", r.Stats())
	}
}

func TestReassembleShuffled(t *testing.T) {
	p := fragSample(8000)
	frags, _ := Fragment(p, 600)
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	r := NewReassembler()
	var full *Packet
	for _, f := range frags {
		if got, done := r.Add(f); done {
			full = got
		}
	}
	if full == nil || !bytes.Equal(full.Payload, p.Payload) {
		t.Fatal("shuffled reassembly failed")
	}
}

func TestReassembleDuplicatesHarmless(t *testing.T) {
	p := fragSample(2000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	r.Add(frags[0])
	r.Add(frags[0]) // duplicate
	full, done := r.Add(frags[1])
	if !done || !bytes.Equal(full.Payload, p.Payload) {
		t.Fatal("duplicate fragment broke reassembly")
	}
}

func TestReassembleInterleavedPackets(t *testing.T) {
	a := fragSample(2400)
	b := fragSample(2400)
	b.ID = 78
	for i := range b.Payload {
		b.Payload[i] = byte(i * 7)
	}
	fa, _ := Fragment(a, 1100)
	fb, _ := Fragment(b, 1100)
	r := NewReassembler()
	var got []*Packet
	for i := range fa {
		if full, done := r.Add(fa[i]); done {
			got = append(got, full)
		}
		if full, done := r.Add(fb[i]); done {
			got = append(got, full)
		}
	}
	if len(got) != 2 {
		t.Fatalf("reassembled %d packets", len(got))
	}
	if !bytes.Equal(got[0].Payload, a.Payload) || !bytes.Equal(got[1].Payload, b.Payload) {
		t.Fatal("interleaved packets crossed")
	}
}

func TestReassemblySweepExpires(t *testing.T) {
	p := fragSample(3000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	r.Add(frags[0]) // hole remains
	r.Sweep()
	r.Sweep()
	r.Sweep() // age 3 > MaxAge 2
	if r.Pending() != 0 {
		t.Fatal("partial packet survived the sweeps")
	}
	if r.Stats().Expired != 1 {
		t.Fatalf("stats: %+v", r.Stats())
	}
	// The late tail must not resurrect the packet.
	if _, done := r.Add(frags[1]); done {
		t.Fatal("expired packet completed from its tail")
	}
}

func TestReassembleMissingTailNeverCompletes(t *testing.T) {
	p := fragSample(3000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	for _, f := range frags[:len(frags)-1] {
		if _, done := r.Add(f); done {
			t.Fatal("completed without the tail")
		}
	}
}

func TestFragmentsSurviveWire(t *testing.T) {
	p := fragSample(3000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	var full *Packet
	for _, f := range frags {
		raw, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		rx, err := Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got, done := r.Add(rx); done {
			full = got
		}
	}
	if full == nil || !bytes.Equal(full.Payload, p.Payload) {
		t.Fatal("wire round trip broke reassembly")
	}
}

// Property: fragment+reassemble is the identity for any payload size and
// viable MTU, regardless of arrival order.
func TestPropertyFragmentRoundTrip(t *testing.T) {
	f := func(sizeRaw uint16, mtuRaw uint16, seed int64) bool {
		size := int(sizeRaw%20000) + 1
		mtu := int(mtuRaw%1400) + 48 // >= 48: header + >= 1 block
		p := fragSample(size)
		frags, err := Fragment(p, mtu)
		if err != nil {
			return false
		}
		for _, fr := range frags {
			if fr.Len() > mtu {
				return false
			}
		}
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		r := NewReassembler()
		var full *Packet
		for _, fr := range frags {
			if got, done := r.Add(fr); done {
				full = got
			}
		}
		return full != nil && bytes.Equal(full.Payload, p.Payload) && full.Header == p.Header
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

func TestReassembleOverlapDropsBuffer(t *testing.T) {
	p := fragSample(3000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	r.Add(frags[0])

	// A rogue fragment straddling the first piece at a non-identical
	// offset can never assemble; the whole partial buffer must be dropped
	// and accounted rather than leaking until Sweep.
	rogue := &Packet{Header: frags[0].Header, Payload: make([]byte, 64)}
	rogue.FragOff = frags[0].FragOff + 1
	rogue.MoreFrag = true
	if _, done := r.Add(rogue); done {
		t.Fatal("overlapping fragment completed a packet")
	}
	if r.Pending() != 0 {
		t.Fatalf("partial buffer leaked: pending = %d", r.Pending())
	}
	if s := r.Stats(); s.DropOverlap != 1 {
		t.Fatalf("DropOverlap = %d, want 1 (stats %+v)", s.DropOverlap, s)
	}

	// The flow recovers: a clean retransmission of every piece assembles.
	var full *Packet
	for _, f := range frags {
		if got, done := r.Add(f); done {
			full = got
		}
	}
	if full == nil || !bytes.Equal(full.Payload, p.Payload) {
		t.Fatal("reassembly after overlap drop failed")
	}
}

func TestReassembleTailOverlapDrops(t *testing.T) {
	p := fragSample(3000)
	frags, _ := Fragment(p, 1100)
	r := NewReassembler()
	r.Add(frags[1])
	// A fragment one block before an existing piece whose rounded-up
	// extent reaches into it is an overlap too.
	rogue := &Packet{Header: frags[1].Header, Payload: make([]byte, 12)}
	rogue.FragOff = frags[1].FragOff - 1
	rogue.MoreFrag = true
	if _, done := r.Add(rogue); done {
		t.Fatal("overlapping tail completed a packet")
	}
	if r.Pending() != 0 || r.Stats().DropOverlap != 1 {
		t.Fatalf("pending=%d stats=%+v", r.Pending(), r.Stats())
	}
}

// TestReassemblyTableKeepsArrivalOrder: a new reassembler holds no table;
// its partial datagrams sit in arrival order, each with its own pieces,
// whether one completes from the middle or the oldest expires; and a
// finished datagram's room serves the next without allocating.
func TestReassemblyTableKeepsArrivalOrder(t *testing.T) {
	r := NewReassembler()
	if r.partial != nil {
		t.Fatal("a new reassembler holds a table")
	}
	frags := make([][]*Packet, 5)
	for i := range frags {
		p := fragSample(2400)
		p.ID = uint16(100 + i)
		frags[i], _ = Fragment(p, 1100)
	}
	ids := func() (got []uint16) {
		for _, b := range r.partial {
			if len(b.pieces) != 1 || b.pieces[0] != frags[b.key.id-100][0] {
				t.Fatalf("datagram %d holds %d pieces, not its own first", b.key.id, len(b.pieces))
			}
			got = append(got, b.key.id)
		}
		return got
	}
	r.Add(frags[0][0])
	r.Add(frags[1][0])
	r.Sweep()
	r.Add(frags[2][0])
	r.Add(frags[3][0])
	r.Add(frags[1][1])
	if _, done := r.Add(frags[1][2]); !done {
		t.Fatal("datagram 101 did not complete")
	}
	if got := ids(); !slices.Equal(got, []uint16{100, 102, 103}) {
		t.Fatalf("after 101 completed: %v", got)
	}
	r.Sweep()
	r.Sweep() // 100 has now waited three sweeps, past MaxAge; 102 and 103 two
	if got := ids(); !slices.Equal(got, []uint16{102, 103}) || r.Stats().Expired != 1 {
		t.Fatalf("after the sweeps: %v, %+v", got, r.Stats())
	}
	r.Add(frags[4][0])
	if got := ids(); !slices.Equal(got, []uint16{102, 103, 104}) {
		t.Fatalf("after 104 arrived: %v", got)
	}

	if got := testing.AllocsPerRun(10, func() {
		r.Add(frags[0][0])
		r.Add(frags[0][1])
		for range r.MaxAge + 1 {
			r.Sweep()
		}
	}); got != 0 {
		t.Fatalf("a datagram in a warm table allocates %.1f objects, want 0", got)
	}
}
