package metrics

import (
	"testing"
	"unsafe"

	"mosquitonet/internal/sim"
)

// TestHopRecordSize pins the ring slot. The log is on in every compiled
// world at 16,384 slots, so each 8 bytes here is 128 KB of live heap; a
// 104-byte record measured +6 % peak RSS on perf's campus_app workload.
func TestHopRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(hopRecord{}); got > 80 {
		t.Fatalf("hopRecord is %d bytes, want at most 80", got)
	}
	if got := unsafe.Sizeof(Detail{}); got > 32 {
		t.Fatalf("Detail is %d bytes, want at most 32", got)
	}
}

// TestTypedRecordDoesNotAllocate is the point of the typed record: a hop
// with operands goes into a full ring without touching the heap.
func TestTypedRecordDoesNotAllocate(t *testing.T) {
	l := NewPacketLog(sim.New(1), 8)
	src, dst, hw := [4]byte{36, 135, 0, 7}, [4]byte{36, 8, 0, 99}, [6]byte{2, 0, 0, 0, 1, 10}
	record := func() {
		l.RecordDetail(1, "mh", "link.tx", HWDetail(DetailLinkDst, hw))
		l.RecordDetail(1, "mh", "ip.output", PacketDetail(DetailPacketVia, 6, src, dst, 64, 1040, "eth0"))
		l.RecordDetail(1, "r", "ip.forward", AddrDetail(DetailNextHop, dst, "vif0"))
		l.RecordDetail(1, "r", "ip.drop", ProtoDetail(DetailNoHandler, 99))
		l.Record(1, "r", "ip.drop", "ttl expired")
	}
	for i := 0; i < 4; i++ {
		record() // fill the ring so the measured records overwrite
	}
	if l.Evicted() == 0 {
		t.Fatal("ring is not full")
	}
	if allocs := testing.AllocsPerRun(100, record); allocs != 0 {
		t.Fatalf("recording into a full ring allocates %.1f times per 5 hops, want 0", allocs)
	}
}
