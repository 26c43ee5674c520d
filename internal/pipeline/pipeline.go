// Package pipeline implements netfilter-style hook chains: the composable
// splice points the per-host datapath is built from.
//
// The paper's entire mobility mechanism is three interception points in
// the kernel datapath — an overridden ip_rt_route(), a Mobile Policy
// Table consulted beside the routing table, and a VIF fused with IPIP
// decapsulation. This package generalizes the pattern: a Chain is an
// ordered list of named, prioritized hooks at one of the five classic
// stages (PREROUTING, INPUT, FORWARD, OUTPUT, POSTROUTING), each hook
// returns ACCEPT (continue traversal), DROP (discard; the chain's
// observer does the accounting), or STOLEN (the hook took ownership:
// re-injected, queued, or consumed the packet), and traversal stops at
// the first non-ACCEPT verdict.
//
// Determinism is a first-class contract here, not a courtesy: hooks run
// in (priority, name) order regardless of registration order, so two
// same-seed runs — or one run sharded across any number of workers —
// traverse every chain identically and produce byte-identical traces.
// The hookorder mnetlint analyzer enforces the registration discipline
// statically (explicit priorities, no duplicate (stage, priority, name)
// keys); this package enforces it dynamically (registration sorts, same
// name replaces).
package pipeline

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Verdict is a hook's decision about the packet it was shown.
type Verdict int

const (
	// Accept continues chain traversal; the stage's default action runs
	// if every hook accepts.
	Accept Verdict = iota
	// Drop discards the packet. Hooks attach the drop reason and counter
	// to the stage context; the chain's observer (the tracing/accounting
	// middleware) performs the bookkeeping exactly once.
	Drop
	// Stolen means the hook took ownership: the packet was re-injected
	// elsewhere (decapsulation), consumed (local delivery), or queued.
	// Nothing further runs and nothing is accounted — the hook is now
	// responsible for the packet's fate.
	Stolen
)

func (v Verdict) String() string {
	switch v {
	case Accept:
		return "ACCEPT"
	case Drop:
		return "DROP"
	case Stolen:
		return "STOLEN"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Stage names one of the five classic datapath interception points.
type Stage int

const (
	Prerouting  Stage = iota // packet arrived on an interface, before the local/forward decision
	Input                    // packet is being delivered locally (after reassembly slots in)
	Forward                  // packet is transiting this host
	Output                   // locally originated packet, after the route decision
	Postrouting              // any packet about to be handed to an interface
	NumStages                // sentinel: number of stages
)

func (s Stage) String() string {
	switch s {
	case Prerouting:
		return "PREROUTING"
	case Input:
		return "INPUT"
	case Forward:
		return "FORWARD"
	case Output:
		return "OUTPUT"
	case Postrouting:
		return "POSTROUTING"
	default:
		return fmt.Sprintf("stage(%d)", int(s))
	}
}

// Hook is one named, prioritized function on a chain. Lower priorities run
// first; ties break on name (bytewise), so ordering never depends on
// registration order. Names identify hooks for deregistration and
// introspection; registering a hook whose name is already on the chain
// replaces the previous one.
type Hook[C any] struct {
	Name     string
	Priority int
	Fn       func(C) Verdict
}

// Observer sees the outcome of every chain run: the context and the final
// verdict. The stack installs one observer per chain — the uniform
// tracing, metrics, and drop-accounting middleware — so no hook has to
// remember the bookkeeping.
type Observer[C any] func(ctx C, v Verdict)

// Chain is an ordered hook list for one stage of one host. The zero value
// is an empty, runnable chain.
type Chain[C any] struct {
	stage    Stage
	hooks    []Hook[C]
	observer Observer[C]
	onChange func()
	gen      uint64
}

// NewChain creates an empty chain for stage (the stage is carried for
// introspection and error text only).
func NewChain[C any](stage Stage) *Chain[C] { return &Chain[C]{stage: stage} }

// Stage returns the stage this chain runs at.
func (c *Chain[C]) Stage() Stage { return c.stage }

// Gen returns the chain's mutation generation: it increases on every
// Register/Deregister that changes the hook list. Route-decision caches
// guard themselves against it.
func (c *Chain[C]) Gen() uint64 { return c.gen }

// Len returns the number of registered hooks.
func (c *Chain[C]) Len() int { return len(c.hooks) }

// SetObserver installs the chain's middleware, replacing any previous one.
func (c *Chain[C]) SetObserver(obs Observer[C]) { c.observer = obs }

// SetOnChange installs a callback invoked after every successful
// Register/Deregister — the seam route-decision caches hang their
// invalidation on, so a hook registered after host start can never be
// shadowed by a stale cached decision.
func (c *Chain[C]) SetOnChange(fn func()) { c.onChange = fn }

// Register adds h to the chain, keeping hooks sorted by (priority, name).
// A hook with h.Name already present is replaced (and re-sorted under its
// new priority). Empty names and nil functions are programming errors.
func (c *Chain[C]) Register(h Hook[C]) {
	if h.Name == "" {
		panic(fmt.Sprintf("pipeline: %v hook with empty name", c.stage))
	}
	if h.Fn == nil {
		panic(fmt.Sprintf("pipeline: %v hook %q with nil function", c.stage, h.Name))
	}
	for i := range c.hooks {
		if c.hooks[i].Name == h.Name {
			c.hooks = slices.Delete(c.hooks, i, i+1)
			break
		}
	}
	// Names are unique, so (priority, name) is a total order and the sorted
	// list has exactly one place for h: no re-sort (and none of the swapper
	// sort.SliceStable allocates) for chains built in priority order anyway.
	i := sort.Search(len(c.hooks), func(i int) bool { return h.before(c.hooks[i]) })
	c.hooks = slices.Insert(c.hooks, i, h)
	c.changed()
}

func (h Hook[C]) before(o Hook[C]) bool {
	if h.Priority != o.Priority {
		return h.Priority < o.Priority
	}
	return h.Name < o.Name
}

// Deregister removes the named hook, reporting whether it was present.
func (c *Chain[C]) Deregister(name string) bool {
	for i := range c.hooks {
		if c.hooks[i].Name == name {
			c.hooks = append(c.hooks[:i], c.hooks[i+1:]...)
			c.changed()
			return true
		}
	}
	return false
}

func (c *Chain[C]) changed() {
	c.gen++
	if c.onChange != nil {
		c.onChange()
	}
}

// Run traverses the chain in (priority, name) order, stopping at the
// first non-Accept verdict, then hands the context and final verdict to
// the observer. An empty chain accepts.
func (c *Chain[C]) Run(ctx C) Verdict {
	v := Accept
	for i := range c.hooks {
		if v = c.hooks[i].Fn(ctx); v != Accept {
			break
		}
	}
	if c.observer != nil {
		c.observer(ctx, v)
	}
	return v
}

// Names returns the registered hook names in traversal order.
func (c *Chain[C]) Names() []string {
	out := make([]string, len(c.hooks))
	for i, h := range c.hooks {
		out[i] = h.Name
	}
	return out
}

// String renders the chain one hook per line, iptables -L style.
func (c *Chain[C]) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Chain %v (%d hooks)\n", c.stage, len(c.hooks))
	for _, h := range c.hooks {
		fmt.Fprintf(&b, "  %6d  %s\n", h.Priority, h.Name)
	}
	return b.String()
}
