package pipeline

import (
	"math/rand"
	"reflect"
	"testing"
)

type ctx struct {
	path []string
}

// names returns the chain's hook names in traversal order.
func (c *Chain[C]) names() []string {
	out := make([]string, len(c.hooks))
	for i, h := range c.hooks {
		out[i] = h.Name
	}
	return out
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
		if got := c.names(); !reflect.DeepEqual(got, want) {
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
	if got, want := c.names(), []string{"fallback", "override"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	run := &ctx{}
	if v := c.Run(run); v != Accept {
		t.Fatalf("replaced hook's old Drop verdict survived: %v", v)
	}
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
