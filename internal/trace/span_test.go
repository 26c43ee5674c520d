package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/sim"
)

func TestSpanAutoParenting(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)

	var handoff, dhcp, reg *Span
	loop.Schedule(time.Millisecond, func() {
		handoff = tr.StartSpan("mh", "handoff.cold")
		handoff.SetAttr("to", "eth0")
	})
	loop.Schedule(2*time.Millisecond, func() { dhcp = tr.StartSpan("mh", "handoff.dhcp") })
	loop.Schedule(5*time.Millisecond, func() { dhcp.Done() })
	loop.Schedule(6*time.Millisecond, func() { reg = tr.StartSpan("mh", "reg.attempt") })
	loop.Schedule(8*time.Millisecond, func() { reg.Done(); handoff.Done() })
	// A different actor's span opened mid-handoff must NOT nest under mh.
	var serve *Span
	loop.Schedule(7*time.Millisecond, func() { serve = tr.StartSpan("router", "reg.serve") })
	loop.Schedule(7500*time.Microsecond, func() { serve.Done() })
	loop.Run()

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	if handoff.Parent != 0 {
		t.Fatalf("handoff parent = %d, want root", handoff.Parent)
	}
	if dhcp.Parent != handoff.ID || reg.Parent != handoff.ID {
		t.Fatalf("children not parented to handoff: dhcp=%d reg=%d handoff=%d",
			dhcp.Parent, reg.Parent, handoff.ID)
	}
	if serve.Parent != 0 {
		t.Fatalf("cross-actor span must be a root, parent = %d", serve.Parent)
	}
	if handoff.End != sim.Time(8*time.Millisecond) || handoff.Duration() != sim.Time(7*time.Millisecond) {
		t.Fatalf("handoff end/duration: %v/%v", handoff.End, handoff.Duration())
	}
	if v, ok := handoff.Attr("to"); !ok || v != "eth0" {
		t.Fatalf("attr lost: %q %v", v, ok)
	}
}

func TestSpanOutOfOrderDone(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	a := tr.StartSpan("mh", "op.a")
	b := tr.StartSpan("mh", "op.b")
	a.Done() // not LIFO: a ends while b is still open
	c := tr.StartSpan("mh", "op.c")
	if c.Parent != b.ID {
		t.Fatalf("c parent = %d, want b (%d)", c.Parent, b.ID)
	}
	c.Done()
	b.Done()
	b.Done() // double-Done is a no-op
	if b.Open() {
		t.Fatal("b still open")
	}
}

// TestSpanDoneOldestFirst closes many open spans oldest first, the order
// PUBACKs close a QoS-1 client's publishes: each close leaves the rest of
// the stack intact, so a new span still parents to the newest open one,
// and a span started once all are closed is a root.
func TestSpanDoneOldestFirst(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	open := make([]*Span, 200)
	for i := range open {
		open[i] = tr.StartSpan("mh", "op.publish")
		if i > 0 && open[i].Parent != open[i-1].ID {
			t.Fatalf("span %d parent = %d, want %d", i, open[i].Parent, open[i-1].ID)
		}
	}
	for i, s := range open[:len(open)-1] {
		s.Done()
		probe := tr.StartSpan("mh", "op.probe")
		if want := open[len(open)-1].ID; probe.Parent != want {
			t.Fatalf("after closing %d oldest: probe parent = %d, want %d", i+1, probe.Parent, want)
		}
		probe.Done()
	}
	open[len(open)-1].Done()
	if root := tr.StartSpan("mh", "op.after"); root.Parent != 0 {
		t.Fatalf("span after every close has parent %d, want root", root.Parent)
	}
}

// TestSpanDoneMiddle closes a span between two open ones and checks both
// neighbours still parent what comes next.
func TestSpanDoneMiddle(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	a := tr.StartSpan("mh", "op.a")
	b := tr.StartSpan("mh", "op.b")
	c := tr.StartSpan("mh", "op.c")
	b.Done()
	if d := tr.StartSpan("mh", "op.d"); d.Parent != c.ID {
		t.Fatalf("d parent = %d, want c (%d)", d.Parent, c.ID)
	} else {
		d.Done()
	}
	c.Done()
	if e := tr.StartSpan("mh", "op.e"); e.Parent != a.ID {
		t.Fatalf("e parent = %d, want a (%d)", e.Parent, a.ID)
	}
}

// TestOrphanDoneLeavesNewStack closes spans orphaned by Reset: they must not
// reappear as, or unlink, the ambient parent of spans started since.
func TestOrphanDoneLeavesNewStack(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	old1 := tr.StartSpan("mh", "op.old1")
	old2 := tr.StartSpan("mh", "op.old2")
	tr.Reset()
	fresh := tr.StartSpan("mh", "op.fresh")
	old2.Done()
	old1.Done()
	if c := tr.StartSpan("mh", "op.child"); c.Parent != fresh.ID {
		t.Fatalf("child parent = %d, want fresh (%d)", c.Parent, fresh.ID)
	}
}

func TestSpanSetAttrReplaces(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	s := tr.StartSpan("mh", "reg.attempt")
	s.SetAttr("tries", "1")
	s.SetUint("tries", 2)
	s.Done()
	if len(s.Attrs) != 1 || s.Attrs[0].Value != "2" {
		t.Fatalf("SetAttr must replace: %+v", s.Attrs)
	}
}

func TestNilSpanAndTracerSafe(t *testing.T) {
	var tr *Tracer
	s := tr.StartSpan("mh", "x.y")
	if s != nil {
		t.Fatal("nil tracer must hand out nil spans")
	}
	s.SetAttr("k", "v")
	s.SetUint("k", 1)
	s.Done()
	s.Fail(nil)
	if s.Open() || s.Duration() != 0 {
		t.Fatal("nil span misbehaved")
	}
	if tr.Spans() != nil || tr.FindSpans("x.") != nil || tr.SpanTree() != "" {
		t.Fatal("nil tracer returned spans")
	}
	if tr.StartChild(nil, "a", "b.c") != nil {
		t.Fatal("nil tracer StartChild")
	}
	tr.SetCapacity(4)
	if tr.Dropped() != 0 || tr.DroppedSpans() != 0 {
		t.Fatal("nil tracer counters")
	}
	if err := tr.WriteSpansJSONL(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestRingEviction(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	tr.SetCapacity(3)
	for i := 0; i < 5; i++ {
		tr.Record("mh", "tick.n", "%d", i)
		tr.StartSpan("mh", "tick.span").Done()
	}
	ev := tr.Events()
	if len(ev) != 3 || tr.Dropped() != 2 {
		t.Fatalf("events = %d dropped = %d", len(ev), tr.Dropped())
	}
	if ev[0].Detail != "2" || ev[2].Detail != "4" {
		t.Fatalf("ring must keep newest oldest-first: %+v", ev)
	}
	sp := tr.Spans()
	if len(sp) != 3 || tr.DroppedSpans() != 2 {
		t.Fatalf("spans = %d dropped = %d", len(sp), tr.DroppedSpans())
	}
	if sp[0].ID != 3 || sp[2].ID != 5 {
		t.Fatalf("span ring order: %+v", sp)
	}
	// Find/Last must respect ring order too.
	if last, ok := tr.Last("tick."); !ok || last.Detail != "4" {
		t.Fatalf("Last on ring: %+v %v", last, ok)
	}
	// Shrinking an over-full tracer trims the oldest immediately.
	tr.SetCapacity(1)
	if len(tr.Events()) != 1 || tr.Dropped() != 4 {
		t.Fatalf("shrink: events=%d dropped=%d", len(tr.Events()), tr.Dropped())
	}
	// Back to unbounded: nothing else is evicted.
	tr.SetCapacity(0)
	tr.Record("mh", "tick.n", "after")
	if len(tr.Events()) != 2 || tr.Dropped() != 4 {
		t.Fatal("unbounded tracer must stop evicting")
	}
}

func TestPerLoopAssociation(t *testing.T) {
	loop := sim.New(1)
	if For(loop) != nil {
		t.Fatal("loop must start with no tracer")
	}
	tr := New(loop)
	if For(loop) != tr {
		t.Fatal("For must return the registered tracer")
	}
	// A second tracer on the same loop (a private experiment tracer) works
	// but does not steal the association.
	tr2 := New(loop)
	if tr2 == tr || For(loop) != tr {
		t.Fatal("first tracer must keep the association")
	}
	Release(loop)
	if For(loop) != nil {
		t.Fatal("Release must detach the loop")
	}
}

func TestFindSpansAndTree(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	h := tr.StartSpan("mh", "handoff.cold")
	tr.StartSpan("mh", "handoff.dhcp").Done()
	tr.StartSpan("mh", "pipeline.input").Done()
	h.Done()
	if got := len(tr.FindSpans("handoff.")); got != 2 {
		t.Fatalf("FindSpans(handoff.) = %d", got)
	}
	tree := tr.SpanTree("pipeline.")
	if strings.Contains(tree, "pipeline.input") {
		t.Fatalf("exclude prefix leaked into tree:\n%s", tree)
	}
	if !strings.Contains(tree, "handoff.cold") || !strings.Contains(tree, "  handoff.dhcp") {
		t.Fatalf("tree missing nesting:\n%s", tree)
	}
	counts := tr.SpanKindCounts()
	if len(counts) != 3 || counts[0].Kind != "handoff.cold" || counts[0].Count != 1 {
		t.Fatalf("kind counts: %+v", counts)
	}
}

func TestWriteSpansJSONLAndChromeTrace(t *testing.T) {
	build := func() (string, string) {
		loop := sim.New(7)
		tr := New(loop)
		loop.Schedule(time.Millisecond, func() {
			h := tr.StartSpan("mh", "handoff.cold")
			h.SetAttr("to", "eth0")
			loop.Schedule(2*time.Millisecond, func() {
				tr.Record("mh", "reg.request.sent", "to ha")
				tr.StartSpan("mh", "reg.attempt").Done()
				h.Done()
			})
		})
		loop.Run()
		var sj, cj bytes.Buffer
		if err := tr.WriteSpansJSONL(&sj); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteChromeTrace(&cj); err != nil {
			t.Fatal(err)
		}
		return sj.String(), cj.String()
	}
	spans1, chrome1 := build()
	spans2, chrome2 := build()
	if spans1 != spans2 || chrome1 != chrome2 {
		t.Fatal("same-seed exports differ")
	}

	lines := strings.Split(strings.TrimRight(spans1, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("span JSONL lines = %d, want 2", len(lines))
	}
	var s Span
	if err := json.Unmarshal([]byte(lines[0]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Kind != "handoff.cold" || s.Start != sim.Time(time.Millisecond) {
		t.Fatalf("bad span line: %+v", s)
	}

	var ct struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(chrome1), &ct); err != nil {
		t.Fatalf("chrome trace not valid JSON: %v", err)
	}
	var phX, phI, phM int
	for _, e := range ct.TraceEvents {
		switch e["ph"] {
		case "X":
			phX++
		case "i":
			phI++
		case "M":
			phM++
		}
	}
	if phX != 2 || phI != 1 || phM < 2 {
		t.Fatalf("chrome trace shape: X=%d i=%d M=%d", phX, phI, phM)
	}
}

func TestResetClearsSpans(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	open := tr.StartSpan("mh", "op.pending")
	tr.StartSpan("mh", "op.done").Done()
	tr.Reset()
	if len(tr.Spans()) != 0 {
		t.Fatal("Reset did not clear spans")
	}
	open.Done() // orphaned but harmless
	if len(tr.Spans()) != 0 {
		t.Fatal("orphaned span re-appeared after Reset")
	}
}
