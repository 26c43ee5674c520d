package mip

import (
	"fmt"
	"sort"
	"strings"

	"mosquitonet/internal/ip"
)

// Policy is a Mobile Policy Table verdict for packets a mobile host sends
// while away from home. The paper's Section 3.2 lays out the three
// decisions behind these: tunnel or direct, encapsulated or not, home or
// local source address.
type Policy int

// Policies, from most conservative to most optimized.
const (
	// PolicyTunnel is the basic protocol: reverse-tunnel through the home
	// agent. Simple and always works.
	PolicyTunnel Policy = iota
	// PolicyTriangle sends directly to the correspondent with the home
	// address as source — better route, no encapsulation, but dropped by
	// routers that forbid transit traffic.
	PolicyTriangle
	// PolicyEncapDirect encapsulates directly to a smart correspondent
	// that can decapsulate IP-in-IP: better route, survives transit
	// filters (the outer source is the local care-of address), but keeps
	// the 20-byte overhead.
	PolicyEncapDirect
	// PolicyDirect sends bare packets with the care-of source — the local
	// role; no mobility support at all.
	PolicyDirect
)

func (p Policy) String() string {
	switch p {
	case PolicyTunnel:
		return "tunnel"
	case PolicyTriangle:
		return "triangle"
	case PolicyEncapDirect:
		return "encap-direct"
	case PolicyDirect:
		return "direct"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

type policyEntry struct {
	prefix ip.Prefix
	policy Policy
}

// PolicyTable is the Mobile Policy Table: per-destination-prefix sending
// policies, consulted by the mobile host's route-lookup override alongside
// the ordinary routing table. The kernel routing tables stay untouched.
type PolicyTable struct {
	entries []policyEntry

	lookups uint64
	hits    uint64 // lookups resolved by an explicit entry (not the default)
}

// NewPolicyTable creates an empty table: every destination gets the
// default policy, PolicyTunnel, the basic protocol.
func NewPolicyTable() *PolicyTable { return &PolicyTable{} }

// Set installs or replaces the policy for a destination prefix.
func (t *PolicyTable) Set(prefix ip.Prefix, p Policy) {
	prefix = prefix.Normalize()
	for i := range t.entries {
		if t.entries[i].prefix == prefix {
			t.entries[i].policy = p
			return
		}
	}
	// Longest prefixes first; the new entry goes in after the entries at
	// least as long, where a stable sort with it appended would leave it.
	i := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].prefix.Bits < prefix.Bits })
	t.entries = append(t.entries, policyEntry{})
	copy(t.entries[i+1:], t.entries[i:])
	t.entries[i] = policyEntry{prefix, p}
}

// SetHost installs a host-specific (/32) policy — how probe results for a
// single correspondent are cached.
func (t *PolicyTable) SetHost(addr ip.Addr, p Policy) {
	t.Set(ip.Prefix{Addr: addr, Bits: 32}, p)
}

// Delete removes the entry for an exact prefix.
func (t *PolicyTable) Delete(prefix ip.Prefix) bool {
	prefix = prefix.Normalize()
	for i := range t.entries {
		if t.entries[i].prefix == prefix {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Lookup returns the policy for dst: the longest matching prefix, or
// PolicyTunnel.
func (t *PolicyTable) Lookup(dst ip.Addr) Policy {
	t.lookups++
	for _, e := range t.entries {
		if e.prefix.Contains(dst) {
			t.hits++
			return e.policy
		}
	}
	return PolicyTunnel
}

// Lookups returns the total number of Lookup calls.
func (t *PolicyTable) Lookups() uint64 { return t.lookups }

// Hits returns how many lookups matched an explicit entry rather than
// falling through to the default policy.
func (t *PolicyTable) Hits() uint64 { return t.hits }

// Len returns the number of explicit entries.
func (t *PolicyTable) Len() int { return len(t.entries) }

// String renders the table, most-specific first.
func (t *PolicyTable) String() string {
	var b strings.Builder
	for _, e := range t.entries {
		fmt.Fprintf(&b, "%v -> %v\n", e.prefix, e.policy)
	}
	fmt.Fprintf(&b, "default -> %v\n", PolicyTunnel)
	return b.String()
}
