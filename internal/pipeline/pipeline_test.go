package pipeline

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

type ctx struct {
	path []string
}

func hook(name string, pri int, v Verdict) Hook[*ctx] {
	return Hook[*ctx]{Name: name, Priority: pri, Fn: func(c *ctx) Verdict {
		c.path = append(c.path, name)
		return v
	}}
}

// TestOrderingDeterminism registers the same hook set in many shuffled
// orders and asserts the traversal order is always (priority, name) —
// the chain-level half of the trace byte-identicality argument.
func TestOrderingDeterminism(t *testing.T) {
	hooks := []Hook[*ctx]{
		hook("route", -200, Accept),
		hook("ttl", -300, Accept),
		hook("filter#00", 0, Accept),
		hook("filter#01", 0, Accept),
		hook("mtu", 100, Accept),
		hook("redirect", 200, Accept),
	}
	want := []string{"ttl", "route", "filter#00", "filter#01", "mtu", "redirect"}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		c := NewChain[*ctx](Forward)
		perm := rng.Perm(len(hooks))
		for _, i := range perm {
			c.Register(hooks[i])
		}
		if got := c.Names(); !reflect.DeepEqual(got, want) {
			t.Fatalf("perm %v: order %v, want %v", perm, got, want)
		}
		run := &ctx{}
		if v := c.Run(run); v != Accept {
			t.Fatalf("verdict %v", v)
		}
		if !reflect.DeepEqual(run.path, want) {
			t.Fatalf("perm %v: traversal %v, want %v", perm, run.path, want)
		}
	}
}

// TestVerdictShortCircuit asserts Drop and Stolen stop traversal where
// they occur, and that Accept from every hook falls through.
func TestVerdictShortCircuit(t *testing.T) {
	for _, stop := range []Verdict{Drop, Stolen} {
		c := NewChain[*ctx](Input)
		c.Register(hook("a", 1, Accept))
		c.Register(hook("b", 2, stop))
		c.Register(hook("c", 3, Accept))
		run := &ctx{}
		if v := c.Run(run); v != stop {
			t.Fatalf("verdict %v, want %v", v, stop)
		}
		if want := []string{"a", "b"}; !reflect.DeepEqual(run.path, want) {
			t.Fatalf("traversal %v, want %v", run.path, want)
		}
	}
	if v := NewChain[*ctx](Input).Run(&ctx{}); v != Accept {
		t.Fatalf("empty chain verdict %v, want ACCEPT", v)
	}
}

// TestReplaceByName asserts same-name registration replaces (the
// generalized single-slot override), including a priority move.
func TestReplaceByName(t *testing.T) {
	c := NewChain[*ctx](Output)
	c.Register(hook("override", -100, Drop))
	c.Register(hook("fallback", 0, Accept))
	c.Register(hook("override", 50, Accept)) // replace, and move after fallback
	if got, want := c.Names(), []string{"fallback", "override"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
	run := &ctx{}
	if v := c.Run(run); v != Accept {
		t.Fatalf("replaced hook's old Drop verdict survived: %v", v)
	}
}

// TestDeregister asserts removal and its change notification.
func TestDeregister(t *testing.T) {
	var c Chain[*ctx]
	changes := 0
	c.Init(NewTable[*ctx](Forward), func() { changes++ })
	c.Register(hook("a", 0, Accept))
	if !c.Deregister("a") {
		t.Fatal("Deregister(a) = false")
	}
	if c.Deregister("a") {
		t.Fatal("second Deregister(a) = true")
	}
	if changes != 2 { // register + deregister
		t.Fatalf("onChange ran %d times, want 2", changes)
	}
}

// TestDeregisterClearsVacatedSlot: the slot a removal vacates at the end of
// the backing array reads zero, so the removed hook's closure — and what it
// holds, such as a tunnel endpoint and its host — is not kept reachable.
func TestDeregisterClearsVacatedSlot(t *testing.T) {
	c := NewChain[*ctx](Input)
	c.Register(hook("a", 0, Accept))
	c.Register(hook("b", 1, Accept))
	c.Register(hook("c", 2, Accept))
	c.Deregister("a")
	if vacated := c.hooks[:len(c.hooks)+1][len(c.hooks)]; vacated.Name != "" || vacated.Fn != nil {
		t.Fatalf("vacated slot holds hook %q", vacated.Name)
	}
}

// TestTableSharedUntilWritten: chains over one table run the table's own
// slice; a Register or Deregister on one copies it first, so the table and
// every other chain over it stay as they were, and the table's hooks can be
// neither replaced nor removed.
func TestTableSharedUntilWritten(t *testing.T) {
	// Three built-ins: a table grown by appends would have room for a fourth.
	tab := NewTable(Forward, hook("route", -200, Accept), hook("ttl", -300, Accept), hook("mtu", 100, Accept))
	var a, b Chain[*ctx]
	a.Init(tab, nil)
	b.Init(tab, nil)
	builtins := []string{"ttl", "route", "mtu"}
	if &a.hooks[0] != &tab.hooks[0] || &b.hooks[0] != &tab.hooks[0] {
		t.Fatal("a chain over a table does not run the table's slice")
	}
	a.Register(hook("filter", 200, Drop))
	if got := a.Names(); !reflect.DeepEqual(got, []string{"ttl", "route", "mtu", "filter"}) {
		t.Fatalf("a after Register: %v", got)
	}
	if &a.hooks[0] == &tab.hooks[0] {
		t.Fatal("Register wrote into the shared table")
	}
	if got := b.Names(); !reflect.DeepEqual(got, builtins) || &b.hooks[0] != &tab.hooks[0] {
		t.Fatalf("b after a's Register: %v", got)
	}
	if run := (&ctx{}); b.Run(run) != Accept || !reflect.DeepEqual(run.path, builtins) {
		t.Fatalf("b traversed %v", run.path)
	}
	if !a.Deregister("filter") || a.Deregister("route") || a.Deregister("ttl") {
		t.Fatal("Deregister removed a built-in hook or missed the registered one")
	}
	if got := a.Names(); !reflect.DeepEqual(got, builtins) {
		t.Fatalf("a after Deregister: %v", got)
	}
	if !a.Builtin("route") || a.Builtin("filter") {
		t.Fatal("Builtin disagrees with the table")
	}
	defer func() {
		if recover() == nil {
			t.Error("Register under a built-in name did not panic")
		}
	}()
	b.Register(hook("route", 50, Drop))
}

func TestStrings(t *testing.T) {
	for s, want := range map[Stage]string{
		Prerouting: "PREROUTING", Input: "INPUT", Forward: "FORWARD",
		Output: "OUTPUT", Postrouting: "POSTROUTING",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
	for v, want := range map[Verdict]string{Accept: "ACCEPT", Drop: "DROP", Stolen: "STOLEN"} {
		if v.String() != want {
			t.Errorf("verdict string %q, want %q", v.String(), want)
		}
	}
	c := NewChain[*ctx](Forward)
	c.Register(hook("mtu", 100, Accept))
	if s := c.String(); !strings.Contains(s, "FORWARD") || !strings.Contains(s, "mtu") {
		t.Errorf("String() = %q", s)
	}
}

func TestRegisterPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("empty name", func() {
		NewChain[*ctx](Input).Register(Hook[*ctx]{Fn: func(*ctx) Verdict { return Accept }})
	})
	expectPanic("nil fn", func() {
		NewChain[*ctx](Input).Register(Hook[*ctx]{Name: "x"})
	})
}
