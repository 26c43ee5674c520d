package mip

import (
	"fmt"
	"time"

	"mosquitonet/internal/dhcp"
	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
)

// A connectivity operation is a walk along one list of phases —
//
//	bring-up → acquire → configure → stage route → switch route → register → finish
//
// — and the entry points differ in where they join it, which of a phase's
// side effects they have, and where they leave. switchKind says which.
type switchKind uint8

const (
	opPrepare         switchKind = iota // acquire → stage route
	opForeign                           // bring-up → register, under a handoff.connect span
	opMakeBeforeBreak                   // bring-up → stage route, then it is an opHot
	opHot                               // switch route → register, under a handoff.hot span
	opHome                              // bring-up → configure → routes → deregister
	opAddr                              // configure → route → register, on the active interface
	opViaFA                             // bring-up → agent routes → register through the agent
	opCold                              // teardown, then an opForeign of its own
	opColdHome                          // teardown, then an opHome of its own
)

// switchPhase names what the record's step callback finds done when it runs.
type switchPhase uint8

const (
	phTeardown   switchPhase = iota // the old routes are deleted
	phUp                            // the device is up
	phConfigured                    // the address is written
	phStaged                        // the connected route is written
	phSwitched                      // the default route is moved
)

// switchOp owns one connectivity operation from its entry point to the
// caller's done: what the walk needs between two steps waits here, and the
// two callbacks every step hands out are bound once, when the record is made.
// Records come from the loop's free list (sim.RecordsOf), and finish puts the
// record back there before done runs, so a host that switches again and again
// walks one record and a host between switches holds none. A walk that is dropped
// — the device taken down before it came up, the registration superseded by a
// later one — never finishes: its record is left to the collector, because a
// timer or an exchange may still hold its callbacks.
type switchOp struct {
	m    *MobileHost
	mi   *ManagedIface // the interface being brought into service
	from *ManagedIface // cold switch: the interface torn down first
	done func(error)   // the caller's

	root *trace.Span // the entry point's own span, if it opens one
	cur  *trace.Span // the open phase span

	// The configuration on its way to the interface: a static one, a lease,
	// the home address, a new care-of address; gw alone is a foreign agent.
	addr   ip.Addr
	gw     ip.Addr
	prefix ip.Prefix

	kind switchKind
	next switchPhase

	step   func()      // op.run: the device is up, or a charged delay has elapsed
	finish func(error) // op.end: a registration's outcome, or an inner operation's
}

// newOp takes a record for one operation on mi.
func (m *MobileHost) newOp(kind switchKind, mi *ManagedIface, done func(error)) *switchOp {
	op := sim.RecordsOf[switchOp](m.host.Loop()).Take()
	if op == nil {
		op = new(switchOp)
		op.step, op.finish = op.run, op.end
	}
	op.m, op.kind, op.mi, op.done = m, kind, mi, done
	return op
}

// end closes the operation's span, returns the record and reports to the
// caller — in that order, so done may start the next switch on the record.
func (op *switchOp) end(err error) {
	m, done := op.m, op.done
	op.root.Fail(err)
	switch op.kind {
	case opHot:
		m.trace(kHotDone, trace.Operands{S: errText(err)})
	case opCold, opColdHome:
		m.trace(kColdDone, trace.Operands{S: errText(err)})
	}
	*op = switchOp{step: op.step, finish: op.finish}
	sim.RecordsOf[switchOp](m.host.Loop()).Put(op)
	if done != nil {
		done(err)
	}
}

// after charges the (jittered) cost d of the phase in hand and runs the step
// for next when it has elapsed.
func (op *switchOp) after(next switchPhase, d time.Duration) {
	op.next = next
	op.m.host.Loop().Schedule(op.m.jit(d), op.step)
}

// connect opens the operation's root span and raises the device under a
// bring-up span.
func (op *switchOp) connect(span, start string) {
	m, name := op.m, op.mi.Name()
	op.root = m.startSpan(span)
	op.root.SetAttr("iface", name)
	m.trace(start, trace.Operands{S: name})
	op.cur = m.startSpan(kSpanBringup)
	op.cur.SetAttr("iface", name)
	op.bringUp()
}

func (op *switchOp) bringUp() {
	op.next = phUp
	op.mi.ifc.Device().BringUp(op.step)
}

// acquire finds the care-of configuration: the static one, or a DHCP lease.
func (op *switchOp) acquire() {
	m, mi := op.m, op.mi
	if s := mi.static; s != nil {
		op.configure(s.Addr, s.Prefix, s.Gateway)
		return
	}
	m.trace(kDHCPStart, trace.Operands{S: mi.Name()})
	op.cur = m.startSpan(kSpanDHCP)
	op.cur.SetAttr("iface", mi.Name())
	if err := mi.dhcpc.Acquire(op.lease); err != nil {
		op.cur.Fail(err)
		op.end(err)
	}
}

func (op *switchOp) lease(l dhcp.Lease, err error) {
	if err != nil {
		op.cur.Fail(err)
		op.end(fmt.Errorf("mip: acquiring care-of address: %w", err))
		return
	}
	op.cur.SetAddr("addr", l.Addr)
	op.cur.Done()
	op.m.trace(kDHCPDone, trace.Operands{S: op.mi.Name(), A: l.Addr})
	op.configure(l.Addr, l.Prefix, l.Gateway)
}

// configure opens the configure phase; the address waits on the record while
// the cost of writing it is charged.
func (op *switchOp) configure(addr ip.Addr, prefix ip.Prefix, gw ip.Addr) {
	op.addr, op.prefix, op.gw = addr, prefix, gw
	op.cur = op.m.startSpan(kSpanConfigure)
	if op.kind != opHome && op.kind != opAddr {
		op.cur.SetAttr("iface", op.mi.Name())
	}
	op.after(phConfigured, op.m.cfg.ConfigureDelay)
}

// hotSwitch opens the handoff span of a hot switch and activates.
func (op *switchOp) hotSwitch() {
	m, from, to := op.m, nameOf(op.m.active), op.mi.Name()
	op.kind = opHot
	m.stats.HotSwitches++
	op.root = m.startSpan(kSpanHandoffHot)
	op.root.SetAttr("from", from)
	op.root.SetAttr("to", to)
	m.trace(kHotStart, trace.Operands{S: from, T: to})
	op.activate()
}

// activate opens the switch-route phase on a staged interface.
func (op *switchOp) activate() {
	if !op.mi.ready || !op.mi.ifc.Up() {
		op.end(ErrIfaceNotReady)
		return
	}
	op.cur = op.m.startSpan(kSpanRoute)
	op.cur.SetAttr("iface", op.mi.Name())
	op.after(phSwitched, op.m.cfg.RouteChangeDelay)
}

// leaveHome clears the binding a host at home still has, or finishes.
func (op *switchOp) leaveHome() {
	if op.m.registered {
		op.m.deregister(op.finish)
	} else {
		op.end(nil)
	}
}

// run is the step callback: the phase op.next names is done, so its effects
// are written, its span closed, and the next phase opened — unless the
// interface was torn down under the walk, which then writes nothing more.
func (op *switchOp) run() {
	m, mi := op.m, op.mi
	if op.next != phTeardown && !mi.ifc.Up() {
		op.cur.Fail(ErrIfaceNotReady)
		op.end(ErrIfaceNotReady)
		return
	}
	switch op.next {
	case phTeardown:
		if op.from != nil {
			m.teardown(op.from)
		}
		if op.kind == opColdHome {
			m.ConnectHome(mi, op.gw, op.finish)
		} else {
			m.ConnectForeign(mi, op.finish)
		}

	case phUp:
		op.cur.Done()
		switch op.kind {
		case opHome:
			op.configure(m.cfg.HomeAddr, m.cfg.HomePrefix, op.gw)
		case opViaFA:
			op.after(phConfigured, m.cfg.ConfigureDelay)
		case opForeign:
			m.trace(kBringupDone, trace.Operands{S: mi.Name()})
			op.acquire()
		default:
			op.acquire()
		}

	case phConfigured:
		if op.kind == opViaFA {
			// No local address: the host answers ARP for its home address
			// on the visited link, and the agent is its router.
			if arp := mi.ifc.ARP(); arp != nil {
				arp.Publish(m.cfg.HomeAddr)
			}
			mi.addr, mi.gateway = ip.Addr{}, op.gw
		} else {
			mi.ifc.SetAddr(op.addr, op.prefix) // an old address stops receiving here
			mi.addr, mi.prefix, mi.gateway = op.addr, op.prefix, op.gw
			if op.kind != opAddr {
				op.cur.SetAddr("addr", op.addr)
			}
			op.cur.Done()
			if op.kind == opAddr {
				m.trace(kAddrSwitchConfig, trace.Operands{A: op.addr})
			} else if op.kind != opHome {
				m.trace(kConfigureDone, trace.Operands{S: mi.Name(), A: op.addr})
			}
			op.cur = m.startSpan(kSpanRoute)
		}
		op.after(phStaged, m.cfg.RouteChangeDelay)

	case phStaged:
		switch op.kind {
		case opHome:
			m.host.Routes().Add(stack.Route{Dst: op.prefix, Iface: mi.ifc, Metric: 10})
			m.switchDefaultRoute(mi)
			mi.ready = true
			m.active, m.atHome, m.careOf = mi, true, ip.Addr{}
			op.cur.Done()
			if arp := mi.ifc.ARP(); arp != nil {
				arp.Gratuitous(m.cfg.HomeAddr, mi.ifc.Device().HW())
			}
			m.notifyLink(mi)
			m.trace(kHomeAttachDone, trace.Operands{A: m.cfg.HomeAddr})
			op.leaveHome()
		case opAddr:
			op.cur.Done()
			m.trace(kAddrSwitchRoute, trace.Operands{})
			m.register(op.addr, m.cfg.Lifetime, op.finish)
		case opViaFA:
			routes := m.host.Routes()
			routes.Add(stack.Route{Dst: ip.Prefix{Addr: op.gw, Bits: 32}, Iface: mi.ifc, Metric: 10})
			routes.Delete(ip.Prefix{})
			routes.Add(stack.Route{Dst: ip.Prefix{}, Gateway: op.gw, Iface: mi.ifc})
			mi.ready = true
			m.active, m.atHome, m.careOf, m.faAddr = mi, false, ip.Addr{}, op.gw
			m.notifyLink(mi)
			m.registerViaFA(op.gw, op.finish)
		default:
			m.host.Routes().Add(stack.Route{Dst: op.prefix, Iface: mi.ifc, Metric: 10})
			mi.ready = true
			op.cur.Done()
			m.trace(kRouteStaged, trace.Operands{S: mi.Name()})
			switch op.kind {
			case opPrepare:
				op.end(nil)
			case opMakeBeforeBreak:
				op.hotSwitch()
			default:
				op.activate()
			}
		}

	case phSwitched:
		m.active = mi
		m.atHome = m.cfg.HomePrefix.Contains(mi.addr) && mi.addr == m.cfg.HomeAddr
		m.switchDefaultRoute(mi)
		op.cur.Done()
		m.trace(kRouteSwitched, trace.Operands{S: mi.Name()})
		m.notifyLink(mi)
		if m.atHome {
			m.careOf = ip.Addr{}
			op.leaveHome()
		} else {
			m.register(mi.addr, m.cfg.Lifetime, op.finish)
		}
	}
}
