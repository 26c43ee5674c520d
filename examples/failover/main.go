// Failover: the extensions working together. A link monitor (the paper's §6
// "when to switch" future work) watches the active link and fails over to
// the radio when the office wire dies, then upgrades back when it returns;
// a DNS name keeps resolving to the permanent home address throughout; and
// the link-change notification API tells the application what kind of
// connectivity it has at each moment.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"
	"time"

	mosquitonet "mosquitonet"
)

func main() {
	w := mosquitonet.NewWorld(21)
	home, err := w.AddSubnet("home", "10.1.0.0/24", mosquitonet.Ethernet())
	check(err)
	office, err := w.AddSubnet("office", "10.2.0.0/24", mosquitonet.Ethernet())
	check(err)
	cellular, err := w.AddSubnet("cellular", "10.9.0.0/24", mosquitonet.Radio())
	check(err)

	ha, err := home.HomeAgent(2)
	check(err)
	_, err = office.DHCP(100, 120)
	check(err)

	// Name service on the home subnet.
	dnsHost, err := home.Host("dns", 53)
	check(err)

	laptop, err := w.MobileHost("laptop", home, 7, ha.Addr())
	check(err)
	_, err = mosquitonet.NewDNSServer(dnsHost.TS, mosquitonet.DNSServerConfig{
		Zone: map[string]mosquitonet.Addr{"laptop.mosquito.edu": laptop.MH.HomeAddr()},
	})
	check(err)

	eth0, err := laptop.WiredInterface("eth0", office)
	check(err)
	strip0, err := laptop.StaticInterface("strip0", cellular, 7, true)
	check(err)

	laptop.MH.OnLinkChange = func(c mosquitonet.LinkChange) {
		fmt.Printf("[%8v] link: %s (%s, %d bit/s)\n",
			w.Loop.Now().Duration().Round(time.Millisecond), c.Iface, c.Medium.Name, c.Medium.BitRate)
	}

	// A correspondent that knows the laptop only by name.
	ch, err := home.Host("colleague", 9)
	check(err)
	resolver := mosquitonet.NewDNSResolver(ch.TS, dnsHost.Addr)
	var laptopAddr mosquitonet.Addr
	resolver.Resolve("laptop.mosquito.edu", func(a mosquitonet.Addr, err error) {
		check(err)
		laptopAddr = a
	})

	// Attach at the office and start a steady stream from the colleague.
	done := false
	laptop.MH.ConnectForeign(eth0, func(err error) { check(err); done = true })
	w.Run(10 * time.Second)
	if !done {
		log.Fatal("could not attach at the office")
	}
	fmt.Printf("resolved laptop.mosquito.edu -> %v (the permanent home address)\n", laptopAddr)

	received := 0
	_, err = laptop.TS.UDP(mosquitonet.Unspecified, 4000, func(mosquitonet.Datagram) { received++ })
	check(err)
	src, err := ch.TS.UDP(mosquitonet.Unspecified, 0, nil)
	check(err)
	sent := 0
	var tick func()
	tick = func() {
		sent++
		src.SendTo(laptopAddr, 4000, []byte("tick"))
		w.Loop.Schedule(100*time.Millisecond, tick)
	}
	w.Loop.Schedule(0, tick)

	// The monitor watches the office wire, with the cellular radio as backup.
	mon := &monitor{w: w, mh: laptop.MH, candidates: []*mosquitonet.ManagedIface{eth0, strip0}}
	mon.start()
	w.Run(5 * time.Second)
	report := func(tag string) {
		fmt.Printf("           stream: %d sent, %d received (%s)\n", sent, received, tag)
	}
	report("on the office wire")

	fmt.Println("\n-- the office wire is unplugged")
	eth0.Iface().Device().Detach()
	w.Run(20 * time.Second)
	report("after automatic failover to the radio")

	fmt.Println("\n-- the office wire is plugged back in")
	eth0.Iface().Device().Attach(office.Net)
	w.Run(30 * time.Second)
	report("after automatic upgrade back to the wire")

	mon.stopped = true
	w.Run(2 * time.Second)
	fmt.Printf("\nroamer stats: %+v\n", mon.stats)
	fmt.Printf("lost across both automatic switches: %d of %d\n", sent-received, sent)
}

// The monitor's policy: probe the active link's gateway every second,
// declare the link dead after two failed probes in a row, and every five
// seconds try to move back to a preferred candidate.
const (
	probeInterval   = time.Second
	failThreshold   = 2
	upgradeInterval = 5 * time.Second
)

// monitor decides when to switch. Every switch it makes is one of the
// mobile host's own: a cold switch to fail over (the active link is dead,
// so there is nothing to keep), and a make-before-break switch followed by
// a disconnect to upgrade (a failed attempt leaves the working link alone).
type monitor struct {
	w          *mosquitonet.World
	mh         *mosquitonet.MobileHost
	candidates []*mosquitonet.ManagedIface // best first

	stopped   bool
	switching bool
	fails     int
	stats     struct{ Probes, ProbeFails, Failovers, Upgrades uint64 }
}

func (m *monitor) start() {
	m.w.Loop.Schedule(probeInterval, m.probe)
	m.w.Loop.Schedule(upgradeInterval, m.tryUpgrade)
}

// probe pings the active interface's gateway from its local address.
func (m *monitor) probe() {
	if m.stopped {
		return
	}
	defer m.w.Loop.Schedule(probeInterval, m.probe)
	if m.switching {
		return
	}
	active := m.mh.Active()
	if active == nil || !active.Iface().Up() {
		m.noteFailure()
		return
	}
	gw := active.Gateway()
	if gw.IsUnspecified() {
		return
	}
	bound := active.Addr()
	if bound.IsUnspecified() {
		bound = m.mh.HomeAddr()
	}
	m.stats.Probes++
	m.mh.Host().ICMP().Ping(gw, bound, 8, probeInterval, func(res mosquitonet.PingResult) {
		if res.TimedOut || res.Unreachable {
			m.noteFailure()
			return
		}
		m.fails = 0
	})
}

func (m *monitor) noteFailure() {
	m.stats.ProbeFails++
	if m.fails++; m.fails >= failThreshold {
		m.fails = 0
		m.failover()
	}
}

// failover cold-switches to the best candidate other than the dead one.
func (m *monitor) failover() {
	from := m.mh.Active()
	for _, to := range m.candidates {
		if to == from {
			continue
		}
		m.stats.Failovers++
		m.switching = true
		m.mh.ColdSwitch(to, func(err error) {
			m.switching = false
			if err == nil {
				m.report("FAILOVER", from, to)
			}
		})
		return
	}
}

// tryUpgrade moves to the best candidate preferred over the active one
// whose device is plugged in, if there is one.
func (m *monitor) tryUpgrade() {
	if m.stopped {
		return
	}
	defer m.w.Loop.Schedule(upgradeInterval, m.tryUpgrade)
	if m.switching {
		return
	}
	from := m.mh.Active()
	for _, to := range m.candidates {
		if to == from {
			return
		}
		if to.Iface().Device().Network() == nil {
			continue
		}
		m.switching = true
		m.mh.MakeBeforeBreak(to, func(err error) {
			m.switching = false
			if err != nil {
				return
			}
			if from != nil {
				m.mh.Disconnect(from)
			}
			m.stats.Upgrades++
			m.report("UPGRADE ", from, to)
		})
		return
	}
}

func (m *monitor) report(what string, from, to *mosquitonet.ManagedIface) {
	fmt.Printf("[%8v] %s %s -> %s\n", m.w.Loop.Now().Duration().Round(time.Millisecond), what, from.Name(), to.Name())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
