package sim

import (
	"runtime"
	"testing"
	"time"
)

// rec is a record with a pointer in it, so the allocator gives each one an
// object of its own and a finalizer on it is honoured.
type rec struct {
	next *rec
	pad  [56]byte
}

// TestRecordsZeroValueIsUncapped: a list with no Max keeps every record put
// back, and hands them out again last in, first out.
func TestRecordsZeroValueIsUncapped(t *testing.T) {
	var r Records[rec]
	const n = 10_000
	recs := make([]*rec, n)
	for i := range recs {
		recs[i] = new(rec)
		r.Put(recs[i])
	}
	if r.Free() != n {
		t.Fatalf("uncapped list keeps %d of %d records", r.Free(), n)
	}
	for i := n - 1; i >= 0; i-- {
		if x := r.Take(); x != recs[i] {
			t.Fatalf("take %d: got record %p, want %p (last in, first out)", n-i, x, recs[i])
		}
	}
	if x := r.Take(); x != nil {
		t.Fatalf("an empty list handed out %p", x)
	}
	if got := r.Ledger(); got.Taken != n+1 || got.Returned != n || got.Free != 0 || got.InUse() != 1 {
		t.Fatalf("ledger %+v, want %d taken (the empty take counts), %d returned, none free", got, n+1, n)
	}
}

// TestRecordsPutPastMax: a Put beyond the cap counts as returned and leaves
// the list at its cap.
func TestRecordsPutPastMax(t *testing.T) {
	r := Records[rec]{Max: 3}
	for i := 0; i < 5; i++ {
		r.Put(new(rec))
	}
	if got := r.Ledger(); got.Returned != 5 || got.Free != 3 {
		t.Fatalf("after 5 puts to a list capped at 3: %+v, want 5 returned, 3 free", got)
	}
	r.Take()
	r.Put(new(rec))
	r.Put(new(rec))
	if got := r.Ledger(); got.Taken != 1 || got.Returned != 7 || got.Free != 3 {
		t.Fatalf("after a take and two more puts: %+v, want 1 taken, 7 returned, 3 free", got)
	}
}

// TestRecordsTakeForgets: a record Take hands out is no longer reachable
// from the list, so once its taker drops it the collector can have it (and
// whatever it points at). A list that kept the popped pointer past its
// length would pin it until the slot was overwritten.
func TestRecordsTakeForgets(t *testing.T) {
	var r Records[rec]
	collected := make(chan struct{})
	func() {
		x := new(rec)
		runtime.SetFinalizer(x, func(*rec) { close(collected) })
		r.Put(x)
		if r.Take() != x {
			t.Fatal("the list did not hand back the record put on it")
		}
	}()
	for i := 0; i < 50; i++ {
		runtime.GC()
		select {
		case <-collected:
			runtime.KeepAlive(&r)
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	runtime.KeepAlive(&r)
	t.Fatal("a record taken from the list and dropped was never collected: the list still reaches it")
}
