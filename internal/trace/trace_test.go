package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
)

func TestRecordAndFind(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	loop.Schedule(time.Millisecond, func() { tr.Record("mh", "reg.request.sent", "to %s", "ha") })
	loop.Schedule(2*time.Millisecond, func() { tr.Record("ha", "reg.reply.sent", "ok") })
	loop.Schedule(3*time.Millisecond, func() { tr.Record("mh", "reg.reply.received", "") })
	loop.Run()

	all := tr.Events()
	if len(all) != 3 {
		t.Fatalf("events = %d", len(all))
	}
	if all[0].At != sim.Time(time.Millisecond) || all[0].Actor != "mh" {
		t.Fatalf("first event: %+v", all[0])
	}
	if all[0].Detail != "to ha" {
		t.Fatalf("detail: %q", all[0].Detail)
	}

	reg := tr.Find("reg.")
	if len(reg) != 3 {
		t.Fatalf("Find(reg.) = %d", len(reg))
	}
	replies := tr.Find("reg.reply")
	if len(replies) != 2 {
		t.Fatalf("Find(reg.reply) = %d", len(replies))
	}

	last, ok := tr.Last("reg.")
	if !ok || last.Kind != "reg.reply.received" {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
	if _, ok := tr.Last("nope"); ok {
		t.Fatal("Last found a nonexistent kind")
	}
}

func TestHook(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	var seen []Event
	tr.Hook = func(e Event) { seen = append(seen, e) }
	tr.Record("x", "k", "d")
	if len(seen) != 1 || seen[0].Kind != "k" {
		t.Fatalf("hook saw %v", seen)
	}
}

func TestReset(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	tr.Record("x", "k", "")
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Record("x", "k", "") // must not panic
	if tr.Events() != nil || tr.String() != "" {
		t.Fatal("nil tracer misbehaved")
	}
	if _, ok := tr.Last("k"); ok {
		t.Fatal("nil tracer found events")
	}
	if tr.Find("k") != nil {
		t.Fatal("nil tracer found events")
	}
	tr.Reset()
}

func TestString(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	tr.Record("mh", "handoff.start", "eth0 -> strip0")
	s := tr.String()
	if !strings.Contains(s, "handoff.start") || !strings.Contains(s, "eth0 -> strip0") {
		t.Fatalf("String = %q", s)
	}
}

// testRender is a Renderer as a layer would declare one.
func testRender(kind string, o Operands) string {
	return fmt.Sprintf("%s: %v to %v n=%d i=%d j=%d %s/%s", kind, o.A, o.B, o.N, o.I, o.J, o.S, o.T)
}

// TestTypedEventsThroughEveryReader records operands and reads them back
// through each place that hands out text: every one renders, and the ring,
// the filter and the hook treat a typed event like a pre-rendered one.
func TestTypedEventsThroughEveryReader(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	defer Release(loop)
	var hooked []Event
	tr.Hook = func(e Event) { hooked = append(hooked, e) }
	ops := Operands{A: ip.Addr{10, 0, 0, 1}, B: ip.Addr{10, 0, 0, 2}, N: 1 << 40, I: -3, J: 7, S: "eth0", T: "strip0"}
	want := testRender("reg.typed", ops)
	tr.Record("mh", "reg.text", "try=%d", 1)
	tr.RecordOps("mh", "reg.typed", testRender, ops)
	tr.RecordOps("ha", "binding.typed", testRender, Operands{})

	for name, got := range map[string]string{
		"Events": tr.Events()[1].Detail,
		"Find":   tr.Find("reg.typed")[0].Detail,
		"Hook":   hooked[1].Detail,
		"Filter": tr.Filter("reg.").Events()[1].Detail,
	} {
		if got != want {
			t.Errorf("%s renders %q, want %q", name, got, want)
		}
	}
	if last, ok := tr.Last("reg."); !ok || last.Detail != want || last.Actor != "mh" {
		t.Errorf("Last = %+v", last)
	}
	if hooked[0].Detail != "try=1" || tr.Events()[0].Detail != "try=1" {
		t.Errorf("pre-rendered event reads %q / %q", hooked[0].Detail, tr.Events()[0].Detail)
	}
	var jsonl, chrome bytes.Buffer
	if err := tr.WriteJSONL(&jsonl); err != nil || !strings.Contains(jsonl.String(), `"detail":"`+want+`"`) {
		t.Errorf("WriteJSONL (%v):\n%s", err, jsonl.String())
	}
	if err := tr.WriteChromeTrace(&chrome); err != nil || !strings.Contains(chrome.String(), want) {
		t.Errorf("WriteChromeTrace (%v) lacks the rendered detail", err)
	}
	if !strings.Contains(tr.String(), want) {
		t.Errorf("String lacks the rendered detail:\n%s", tr.String())
	}

	// The ring evicts typed and pre-rendered events alike, oldest first.
	tr.SetCapacity(2)
	tr.RecordOps("mh", "reg.typed", testRender, Operands{N: 9})
	if ev := tr.Events(); len(ev) != 2 || ev[0].Kind != "binding.typed" || ev[1].Detail != testRender("reg.typed", Operands{N: 9}) || tr.Dropped() != 2 {
		t.Errorf("ring holds %+v after %d evictions", ev, tr.Dropped())
	}
}

// TestTypedRecordDoesNotAllocate: a nil tracer costs a nil check, a live
// one a store into its ring — no formatting, no boxing, for events or for
// the typed span attributes.
func TestTypedRecordDoesNotAllocate(t *testing.T) {
	loop := sim.New(1)
	tr := New(loop)
	defer Release(loop)
	tr.SetCapacity(64)
	ops := Operands{A: ip.Addr{10, 0, 0, 1}, N: 1 << 40, I: 3, S: "eth0"}
	for name, tracer := range map[string]*Tracer{"nil": nil, "live": tr} {
		if n := testing.AllocsPerRun(200, func() { tracer.RecordOps("mh", "reg.typed", testRender, ops) }); n != 0 {
			t.Errorf("RecordOps on a %s tracer allocates %.1f objects", name, n)
		}
	}
	var none *Span
	if n := testing.AllocsPerRun(200, func() {
		none.SetUint("tries", 1<<40)
		none.SetAddr("careof", ops.A)
	}); n != 0 {
		t.Errorf("typed attributes on a nil span allocate %.1f objects", n)
	}
	sp := tr.StartSpan("mh", "reg.attempt")
	sp.SetUint("tries", 3)
	sp.SetAddr("careof", ops.A)
	if v, _ := sp.Attr("tries"); v != "3" {
		t.Errorf("tries = %q", v)
	}
	if v, _ := sp.Attr("careof"); v != "10.0.0.1" {
		t.Errorf("careof = %q", v)
	}
}
