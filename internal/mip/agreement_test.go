package mip

import (
	"strings"
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/link"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/transport"
)

// visitor is a mobile host homed on 10.1.0.0/24 that visits foreignA.
func (w *world) visitor(name string, home ip.Addr) (*MobileHost, *ManagedIface) {
	w.t.Helper()
	m := NewMobileHost(transport.NewStack(stack.NewHost(w.loop, name, stack.Config{})), MobileHostConfig{
		HomeAddr:   home,
		HomePrefix: ip.MustParsePrefix("10.1.0.0/24"),
		HomeAgent:  ip.MustParseAddr(wHAAddr),
		Lifetime:   time.Minute,
	})
	dev := link.NewDevice(w.loop, name+"-eth0", 0, 0)
	dev.Attach(w.forA)
	mi, err := m.AddInterface("eth0", dev, false, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	m.ConnectForeign(mi, nil)
	return m, mi
}

// checkAgreement holds the home agent's three records of a binding to one
// another: for every address in homes, a binding exists exactly when proxy
// ARP publishes the address and exactly when the agent's routing table sends
// it into the tunnel interface by its own /32; and the tunnel interface
// carries one /32 per binding, no more.
func (w *world) checkAgreement(step string, homes []ip.Addr) {
	w.t.Helper()
	vif := w.ha.Tunnel().Iface()
	table := w.ha.host.Routes()
	for _, home := range homes {
		_, bound := w.ha.Binding(home)
		published := w.ha.cfg.HomeIface.ARP().Published(home)
		r, ok := table.Lookup(home)
		tunneled := ok && r.Iface == vif && r.Dst == ip.Prefix{Addr: home, Bits: 32}
		if bound != published || bound != tunneled {
			w.t.Fatalf("after %s: %v bound %v, proxy-ARP published %v, routed into the tunnel %v (%v)", step, home, bound, published, tunneled, r)
		}
	}
	hostRoutes := 0
	for _, line := range strings.Split(strings.TrimSpace(table.String()), "\n") {
		if f := strings.Fields(line); len(f) > 0 && strings.HasSuffix(f[0], "/32") && strings.Contains(line, " dev "+vif.Name()+" ") {
			hostRoutes++
		}
	}
	if n := len(w.ha.Bindings()); hostRoutes != n {
		w.t.Fatalf("after %s: %d /32s on %s for %d bindings:\n%s", step, hostRoutes, vif.Name(), n, table)
	}
}

// TestBindingRecordsAgree walks a home agent through every way a binding
// comes and goes — registration, renewal, re-registration from a new care-of
// address, deregistration, lifetime expiry, and a crash followed by a restart
// and re-registration — and checks after each that the binding table, proxy
// ARP and the /32 routes into the tunnel say the same thing.
func TestBindingRecordsAgree(t *testing.T) {
	w := newWorld(t, 1)
	home := ip.MustParseAddr(wHomeAddr)
	homes := []ip.Addr{home, {10, 1, 0, 20}, {10, 1, 0, 21}, {10, 1, 0, 99}} // the last is never bound
	bound := func(step string, want ...ip.Addr) {
		t.Helper()
		w.checkAgreement(step, homes)
		if got := w.ha.Bindings(); len(got) != len(want) {
			t.Fatalf("after %s: %d bindings %v, want %v", step, len(got), got, want)
		}
		for _, a := range want {
			if _, ok := w.ha.Binding(a); !ok {
				t.Fatalf("after %s: %v not bound", step, a)
			}
		}
	}
	w.checkAgreement("start", homes)

	w.goForeign()
	leaver, leaverIfc := w.visitor("mh2", homes[1])
	w.visitor("mh3", homes[2])
	w.run(10 * time.Second)
	bound("register", home, homes[1], homes[2])

	renewals := w.mh.Stats().Renewals
	w.run(50 * time.Second)
	if w.mh.Stats().Renewals == renewals {
		t.Fatal("no renewal in 50 s of a one-minute lifetime")
	}
	bound("refresh", home, homes[1], homes[2])

	w.eth1.Iface().Device().Detach()
	w.eth1.Iface().Device().Attach(w.forB)
	moved := false
	w.mh.ColdSwitch(w.eth1, func(err error) {
		if err != nil {
			t.Fatal(err)
		}
		moved = true
	})
	w.run(15 * time.Second)
	if b, _ := w.ha.Binding(home); !moved || !ip.MustParsePrefix("10.3.0.0/24").Contains(b.CareOf) {
		t.Fatalf("re-registration from foreignB: moved %v, binding %+v", moved, b)
	}
	bound("re-registration from a new care-of address", home, homes[1], homes[2])

	w.goHome()
	bound("deregistration", homes[1], homes[2])

	expired := w.ha.Stats().Expired
	leaver.Disconnect(leaverIfc)
	w.run(2 * time.Minute)
	if w.ha.Stats().Expired == expired {
		t.Fatal("the silent binding never expired")
	}
	bound("lifetime expiry", homes[2])

	w.ha.Crash()
	bound("crash")
	w.ha.Restart()
	w.run(time.Minute)
	bound("restart and re-registration", homes[2])
}
