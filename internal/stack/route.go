// Package stack implements the per-host IP stack of the simulator: network
// interfaces, a routing table with longest-prefix match, IP input, output
// and forwarding paths, protocol demultiplexing, and ICMP.
//
// Its single most important design point, copied from the paper, is that
// every locally originated packet is routed through one replaceable
// function with the contract of Linux's ip_rt_route(): given a destination
// and the (possibly unspecified) source the application bound to, return
// the interface to use, the source address to use, and the next hop. The
// MosquitoNet mobile-IP layer installs its override of this function — its
// Mobile Policy Table decisions, home-address source selection, and
// encapsulating virtual interface all act through this one seam, and
// nothing else in the stack knows mobility exists.
package stack

import (
	"fmt"
	"sort"
	"strings"

	"mosquitonet/internal/ip"
)

// Route is one routing-table entry. A zero Gateway means the destination
// is directly reachable on Iface's link.
type Route struct {
	Dst     ip.Prefix
	Gateway ip.Addr
	Iface   *Iface
	Metric  int
}

func (r Route) String() string {
	gw := "direct"
	if !r.Gateway.IsUnspecified() {
		gw = "via " + r.Gateway.String()
	}
	return fmt.Sprintf("%v %s dev %s metric %d", r.Dst, gw, r.Iface.Name(), r.Metric)
}

// RouteTable is an ordered routing table with longest-prefix-match lookup.
// It is deliberately separate from mobility policy: the paper keeps the
// kernel routing tables unchanged and layers the Mobile Policy Table
// beside them, and so do we.
//
// The table is one slice sorted for a first-match scan: longest prefixes
// first, then lowest metric, then insertion order. Its host routes (/32s;
// a home agent holds one per binding) lead it as a block ordered by
// address first, which changes no lookup — two /32s for different
// addresses never both contain a destination — and lets Lookup, Add and
// Delete find a host route by bisection instead of scanning the block, the
// way a kernel's per-prefix-length zone (Linux fib_hash) finds one by
// hash.
type RouteTable struct {
	routes []Route
	n32    int // routes[:n32] are the /32s, by address, then metric

	// gen counts mutations; it backs the host's route-decision cache (any
	// bump invalidates cached decisions). It increases on every
	// Add/Delete/DeleteIface that changes the table and never decreases.
	gen uint64
}

// before orders the table for a simple first-match scan: longest prefixes
// first, then (among /32s) by address, then lowest metric.
func (r Route) before(o Route) bool {
	if r.Dst.Bits != o.Dst.Bits {
		return r.Dst.Bits > o.Dst.Bits
	}
	if r.Dst.Bits == 32 && r.Dst.Addr != o.Dst.Addr {
		return r.Dst.Addr.Less(o.Dst.Addr)
	}
	return r.Metric < o.Metric
}

// lower32 returns the index of the first /32 whose address is not below
// a's: the start of a's run in the block, if it has one.
func (t *RouteTable) lower32(a ip.Addr) int {
	return sort.Search(t.n32, func(i int) bool { return !t.routes[i].Dst.Addr.Less(a) })
}

// run32 returns the bounds [i, j) of the /32 block's run of routes to a;
// the run is empty (i == j, a's place in the block) if a has none.
func (t *RouteTable) run32(a ip.Addr) (i, j int) {
	i = t.lower32(a)
	j = i
	for j < t.n32 && t.routes[j].Dst.Addr == a {
		j++
	}
	return i, j
}

// Add inserts a route. Adding an identical (Dst, Gateway, Iface) tuple
// replaces the previous entry's metric rather than duplicating it.
func (t *RouteTable) Add(r Route) {
	if r.Iface == nil {
		panic("stack: route with nil interface")
	}
	r.Dst = r.Dst.Normalize()
	// Only dst's /32 run, or the shorter prefixes after the block, can hold
	// the same tuple.
	span := t.routes[t.n32:]
	if r.Dst.Bits == 32 {
		i, j := t.run32(r.Dst.Addr)
		span = t.routes[i:j]
	}
	for i := range span {
		e := &span[i]
		if e.Dst == r.Dst && e.Gateway == r.Gateway && e.Iface == r.Iface {
			if e.Metric != r.Metric {
				e.Metric = r.Metric
				t.gen++
				sort.SliceStable(t.routes, func(i, j int) bool { return t.routes[i].before(t.routes[j]) })
			}
			return
		}
	}
	t.gen++
	// The table is sorted, so the new route goes in after the last entry
	// that does not sort after it — where a stable sort of the table with
	// the route appended would leave it, without re-sorting (and without the
	// swapper sort.SliceStable allocates) on every handoff's route change.
	i := sort.Search(len(t.routes), func(i int) bool { return r.before(t.routes[i]) })
	t.routes = append(t.routes, Route{})
	copy(t.routes[i+1:], t.routes[i:])
	t.routes[i] = r
	if r.Dst.Bits == 32 {
		t.n32++
	}
}

// Delete removes every route exactly matching dst. It reports whether
// anything was removed.
func (t *RouteTable) Delete(dst ip.Prefix) bool {
	dst = dst.Normalize()
	if dst.Bits == 32 {
		i, j := t.run32(dst.Addr)
		if i == j {
			return false
		}
		t.routes = append(t.routes[:i], t.routes[j:]...)
		t.n32 -= j - i
		t.gen++
		return true
	}
	kept := t.routes[:t.n32]
	for _, r := range t.routes[t.n32:] {
		if r.Dst != dst {
			kept = append(kept, r)
		}
	}
	removed := len(kept) < len(t.routes)
	t.routes = kept
	if removed {
		t.gen++
	}
	return removed
}

// DeleteIface removes every route through ifc, as when a device goes down.
func (t *RouteTable) DeleteIface(ifc *Iface) int {
	kept := t.routes[:0]
	n := 0
	for _, r := range t.routes {
		if r.Iface == ifc {
			n++
			if r.Dst.Bits == 32 {
				t.n32--
			}
			continue
		}
		kept = append(kept, r)
	}
	t.routes = kept
	if n > 0 {
		t.gen++
	}
	return n
}

// Lookup returns the best (longest-prefix, lowest-metric, up-interface)
// route for dst: the first up route of dst's /32 run, else of the shorter
// prefixes after the block.
func (t *RouteTable) Lookup(dst ip.Addr) (Route, bool) {
	for i := t.lower32(dst); i < t.n32 && t.routes[i].Dst.Addr == dst; i++ {
		if r := t.routes[i]; r.Iface.Up() {
			return r, true
		}
	}
	for _, r := range t.routes[t.n32:] {
		if r.Dst.Contains(dst) && r.Iface.Up() {
			return r, true
		}
	}
	return Route{}, false
}

// Len returns the number of entries.
func (t *RouteTable) Len() int { return len(t.routes) }

// String renders the table one route per line, like "route -n".
func (t *RouteTable) String() string {
	var b strings.Builder
	for _, r := range t.routes {
		fmt.Fprintln(&b, r)
	}
	return b.String()
}

// RouteDecision is the result of the route-lookup function: which interface
// to hand the packet to, the source address to stamp on it, and the
// next-hop address on that interface's link.
type RouteDecision struct {
	Iface   *Iface
	Src     ip.Addr
	NextHop ip.Addr
}
