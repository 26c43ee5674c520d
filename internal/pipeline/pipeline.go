// Package pipeline implements netfilter-style hook chains: the composable
// splice points the per-host datapath is built from.
//
// The paper's entire mobility mechanism is three interception points in
// the kernel datapath — an overridden ip_rt_route(), a Mobile Policy
// Table consulted beside the routing table, and a VIF fused with IPIP
// decapsulation. This package generalizes the pattern: a Chain is an
// ordered list of named, prioritized hooks at one of the five classic
// stages (PREROUTING, INPUT, FORWARD, OUTPUT, POSTROUTING), each hook
// returns ACCEPT (continue traversal), DROP (discard; whoever ran the
// chain does the accounting), or STOLEN (the hook took ownership:
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
	// to the stage context; the chain's runner (the stack's tracing and
	// accounting step) performs the bookkeeping exactly once.
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

// Table is one stage's built-in hooks: the datapath steps every host runs
// unchanged. It is sorted once and never written, so any number of chains,
// on any number of loops, run the same one.
type Table[C any] struct {
	stage Stage
	hooks []Hook[C]
}

// NewTable sorts builtins into stage's table. Names follow Register's rules
// and are unique within the table.
func NewTable[C any](stage Stage, builtins ...Hook[C]) *Table[C] {
	c := Chain[C]{table: &Table[C]{stage: stage}}
	for _, h := range builtins {
		c.Register(h)
	}
	// Clipped: no spare capacity that a chain's first Register could fill in
	// place, under every other chain's feet.
	c.table.hooks = slices.Clip(c.hooks)
	return c.table
}

// Chain is an ordered hook list for one stage of one host: its table's
// built-in hooks plus whatever the host registered. Until its first
// Register a chain runs the table's own slice; that write copies it, so
// only the chains a host changes cost it memory. (Deregister removes only
// registered hooks, so it only ever writes a chain's own copy.) Make one
// with NewChain or Init.
type Chain[C any] struct {
	table    *Table[C]
	hooks    []Hook[C]
	onChange func()
}

// NewChain creates an empty chain for stage (the stage is carried for
// introspection and error text only).
func NewChain[C any](stage Stage) *Chain[C] { return &Chain[C]{table: &Table[C]{stage: stage}} }

// Init makes c a chain running t's built-in hooks, calling onChange (if not
// nil) after every Register and Deregister. That is the seam route-decision
// caches hang their invalidation on, so a hook registered after host start
// can never be shadowed by a stale cached decision.
func (c *Chain[C]) Init(t *Table[C], onChange func()) {
	*c = Chain[C]{table: t, hooks: t.hooks, onChange: onChange}
}

// Stage returns the stage this chain runs at.
func (c *Chain[C]) Stage() Stage { return c.table.stage }

// Len returns the number of hooks, built-in ones included.
func (c *Chain[C]) Len() int { return len(c.hooks) }

// Builtin reports whether name is one of the chain's built-in hooks. Those
// are the datapath, not registrations: Register panics on their names and
// Deregister leaves them in place.
func (c *Chain[C]) Builtin(name string) bool { return index(c.table.hooks, name) >= 0 }

// Register adds h to the chain, keeping hooks sorted by (priority, name).
// A hook with h.Name already present is replaced (and re-sorted under its
// new priority). Empty names, nil functions and built-in names are
// programming errors.
func (c *Chain[C]) Register(h Hook[C]) {
	if h.Name == "" {
		panic(fmt.Sprintf("pipeline: %v hook with empty name", c.Stage()))
	}
	if h.Fn == nil {
		panic(fmt.Sprintf("pipeline: %v hook %q with nil function", c.Stage(), h.Name))
	}
	if c.Builtin(h.Name) {
		panic(fmt.Sprintf("pipeline: %v hook %q is built in", c.Stage(), h.Name))
	}
	if i := index(c.hooks, h.Name); i >= 0 {
		c.hooks = slices.Delete(c.hooks, i, i+1)
	}
	// Names are unique, so (priority, name) is a total order and the sorted
	// list has exactly one place for h: no re-sort (and none of the swapper
	// sort.SliceStable allocates) for chains built in priority order anyway.
	// On a chain still running its table this is the first write, and the
	// table's slice is full, so Insert copies it rather than write into it.
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

// Deregister removes the named hook, reporting whether it was present and
// not built in.
func (c *Chain[C]) Deregister(name string) bool {
	i := index(c.hooks, name)
	if i < 0 || c.Builtin(name) {
		return false
	}
	// Delete zeroes the vacated slot: the removed hook's closure, and what it
	// holds (a tunnel endpoint and its host), is not kept reachable.
	c.hooks = slices.Delete(c.hooks, i, i+1)
	c.changed()
	return true
}

func index[C any](hooks []Hook[C], name string) int {
	return slices.IndexFunc(hooks, func(h Hook[C]) bool { return h.Name == name })
}

func (c *Chain[C]) changed() {
	if c.onChange != nil {
		c.onChange()
	}
}

// Run traverses the chain in (priority, name) order, stopping at the
// first non-Accept verdict, and returns that verdict. An empty chain
// accepts.
func (c *Chain[C]) Run(ctx C) Verdict {
	for i := range c.hooks {
		if v := c.hooks[i].Fn(ctx); v != Accept {
			return v
		}
	}
	return Accept
}

// Names returns the hook names in traversal order.
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
	fmt.Fprintf(&b, "Chain %v (%d hooks)\n", c.Stage(), len(c.hooks))
	for _, h := range c.hooks {
		fmt.Fprintf(&b, "  %6d  %s\n", h.Priority, h.Name)
	}
	return b.String()
}
