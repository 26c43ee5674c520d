// Package pipeline is a netfilter-style hook chain: an ordered list of
// named, prioritized hooks, each returning ACCEPT (continue traversal),
// DROP (discard; whoever ran the chain does the accounting) or STOLEN (the
// hook took ownership), with traversal stopping at the first non-ACCEPT
// verdict.
//
// The stack's datapath runs no chains and returns no verdicts: it is
// straight-line code with two slots and a per-interface transit filter
// (see stack/datapath.go). This package holds only the chain perf's
// pipeline.chain5_ns driver measures.
// Hooks run in (priority, name) order regardless of registration order, so
// two same-seed runs traverse a chain identically; the hookorder mnetlint
// analyzer enforces the registration discipline statically.
package pipeline

import (
	"fmt"
	"slices"
	"sort"
)

// Verdict is a hook's decision about the packet it was shown.
type Verdict int

const (
	// Accept continues: the next hook runs, or the caller's own next
	// step if every hook accepts.
	Accept Verdict = iota
	// Drop discards the packet. The hook stages the drop's reason; whoever
	// ran it does the bookkeeping exactly once.
	Drop
	// Stolen means the hook took ownership: the packet was re-injected,
	// consumed or queued. Nothing further runs and nothing is accounted —
	// the hook is now responsible for the packet's fate.
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
// registration order. Registering a hook whose name is already on the
// chain replaces the previous one.
type Hook[C any] struct {
	Name     string
	Priority int
	Fn       func(C) Verdict
}

// Chain is an ordered hook list for one stage. Make one with NewChain.
type Chain[C any] struct {
	stage Stage
	hooks []Hook[C]
}

// NewChain creates an empty chain for stage (the stage is carried for
// error text only).
func NewChain[C any](stage Stage) *Chain[C] { return &Chain[C]{stage: stage} }

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
	if i := slices.IndexFunc(c.hooks, func(o Hook[C]) bool { return o.Name == h.Name }); i >= 0 {
		c.hooks = slices.Delete(c.hooks, i, i+1)
	}
	// Names are unique, so (priority, name) is a total order and the sorted
	// list has exactly one place for h.
	i := sort.Search(len(c.hooks), func(i int) bool { return h.before(c.hooks[i]) })
	c.hooks = slices.Insert(c.hooks, i, h)
}

func (h Hook[C]) before(o Hook[C]) bool {
	if h.Priority != o.Priority {
		return h.Priority < o.Priority
	}
	return h.Name < o.Name
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
