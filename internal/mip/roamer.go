package mip

import (
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stack"
	"mosquitonet/internal/trace"
)

// This file implements the paper's Section 6 future-work item: "we plan to
// experiment with techniques for determining when to switch between
// networks". The Roamer watches the active interface's connectivity by
// pinging its first-hop gateway in the local role; after a run of failed
// probes it declares the link dead and fails over to the next candidate
// interface, preferring earlier entries of its candidate list (e.g. wire
// before radio). When a preferred interface later becomes usable again, a
// periodic upgrade probe switches back.

// RoamerConfig tunes the monitor.
type RoamerConfig struct {
	// ProbeInterval is how often the active link is probed (default 2s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (default: ProbeInterval, capped so
	// probes never overlap).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures declare the
	// link dead (default 3).
	FailThreshold int
	// UpgradeInterval is how often the roamer tries to move back to a
	// higher-preference candidate (0 disables upgrade attempts).
	UpgradeInterval time.Duration
}

func (c RoamerConfig) withDefaults() RoamerConfig {
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout == 0 || c.ProbeTimeout > c.ProbeInterval {
		c.ProbeTimeout = c.ProbeInterval
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 3
	}
	return c
}

// Candidate pairs a managed interface with how to connect it.
type Candidate struct {
	Iface *ManagedIface
	// Home marks the interface that attaches to the home subnet; Gateway
	// is required for it.
	Home    bool
	Gateway ip.Addr
}

// RoamerStats counts monitor activity.
type RoamerStats struct {
	Probes     uint64
	ProbeFails uint64
	Failovers  uint64
	Upgrades   uint64
}

// Roamer automatically fails over between a mobile host's interfaces.
type Roamer struct {
	m          *MobileHost
	cfg        RoamerConfig
	candidates []Candidate

	running   bool
	switching bool
	fails     int
	probeT    sim.Timer
	upgradeT  sim.Timer
	stats     RoamerStats

	// OnFailover and OnUpgrade report automatic switches; optional.
	OnFailover func(from, to *ManagedIface)
	OnUpgrade  func(from, to *ManagedIface)
}

// NewRoamer creates a monitor over the given candidates, ordered
// best-first. It does not start probing until Start.
func NewRoamer(m *MobileHost, cfg RoamerConfig, candidates []Candidate) *Roamer {
	return &Roamer{m: m, cfg: cfg.withDefaults(), candidates: candidates}
}

// Stats returns a snapshot of the counters.
func (r *Roamer) Stats() RoamerStats { return r.stats }

// Start begins monitoring the active interface.
func (r *Roamer) Start() {
	if r.running {
		return
	}
	r.running = true
	r.fails = 0
	r.scheduleProbe()
	r.scheduleUpgrade()
}

// Stop halts monitoring.
func (r *Roamer) Stop() {
	r.running = false
	r.probeT.Stop()
	r.upgradeT.Stop()
}

func (r *Roamer) scheduleProbe() {
	if !r.running {
		return
	}
	r.probeT = r.m.host.Loop().Schedule(r.cfg.ProbeInterval, r.probe)
}

func (r *Roamer) scheduleUpgrade() {
	if !r.running || r.cfg.UpgradeInterval == 0 {
		return
	}
	r.upgradeT = r.m.host.Loop().Schedule(r.cfg.UpgradeInterval, r.tryUpgrade)
}

// probe pings the active interface's gateway in the local role.
func (r *Roamer) probe() {
	defer r.scheduleProbe()
	if r.switching {
		return
	}
	active := r.m.Active()
	if active == nil || !active.ifc.Up() {
		r.noteFailure()
		return
	}
	gw := active.gateway
	if gw.IsUnspecified() {
		return // nothing to probe against (isolated link)
	}
	bound := active.addr
	if bound.IsUnspecified() {
		bound = r.m.cfg.HomeAddr
	}
	r.stats.Probes++
	r.m.host.ICMP().Ping(gw, bound, 8, r.cfg.ProbeTimeout, func(res stack.PingResult) {
		if res.TimedOut || res.Unreachable {
			r.noteFailure()
			return
		}
		r.fails = 0
	})
}

func (r *Roamer) noteFailure() {
	r.stats.ProbeFails++
	r.fails++
	r.m.trace(kRoamerProbeFailed, trace.Operands{I: int32(r.fails)})
	if r.fails >= r.cfg.FailThreshold {
		r.fails = 0
		r.failover()
	}
}

// failover switches to the best candidate other than the (dead) active
// interface.
func (r *Roamer) failover() {
	from := r.m.Active()
	for _, c := range r.candidates {
		if c.Iface == from {
			continue
		}
		r.stats.Failovers++
		r.m.trace(kRoamerFailover, trace.Operands{S: nameOf(from), T: c.Iface.Name()})
		r.connect(c, func(err error) {
			if err == nil && r.OnFailover != nil {
				r.OnFailover(from, c.Iface)
			}
		})
		return
	}
	r.m.cfg.Tracer.Record(r.m.host.Name(), kRoamerFailover, "no alternative candidate")
}

// tryUpgrade attempts to move back to a higher-preference candidate than
// the active one by preparing it in the background (a make-before-break
// switch, so a failed attempt does not disturb connectivity).
func (r *Roamer) tryUpgrade() {
	defer r.scheduleUpgrade()
	if r.switching || !r.running {
		return
	}
	from := r.m.Active()
	best := r.rank(from)
	if best < 0 {
		return
	}
	c := r.candidates[best]
	r.switching = true
	if c.Home {
		c.Iface.ifc.Device().BringUp(func() {
			// Upgrading to home is a cold switch; the paper's transparency
			// machinery keeps connections alive through it regardless.
			r.m.ColdSwitchHome(c.Iface, c.Gateway, func(err error) {
				r.finishUpgrade(from, c.Iface, err)
			})
		})
		return
	}
	r.m.MakeBeforeBreak(c.Iface, func(err error) {
		if err == nil && from != nil {
			r.m.Disconnect(from)
		}
		r.finishUpgrade(from, c.Iface, err)
	})
}

// rank returns the index of the best candidate strictly preferred over the
// active interface whose device could plausibly come up, or -1.
func (r *Roamer) rank(active *ManagedIface) int {
	activeIdx := len(r.candidates)
	for i, c := range r.candidates {
		if c.Iface == active {
			activeIdx = i
			break
		}
	}
	for i, c := range r.candidates {
		if i >= activeIdx {
			return -1
		}
		if c.Iface.ifc.Device().Network() != nil {
			return i
		}
	}
	return -1
}

func (r *Roamer) finishUpgrade(from, to *ManagedIface, err error) {
	r.switching = false
	if err != nil {
		r.m.trace(kRoamerUpgradeFailed, trace.Operands{S: to.Name(), T: errText(err)})
		return
	}
	r.stats.Upgrades++
	r.m.trace(kRoamerUpgrade, trace.Operands{S: nameOf(from), T: to.Name()})
	if r.OnUpgrade != nil {
		r.OnUpgrade(from, to)
	}
}

// connect attaches a candidate as appropriate for its kind.
func (r *Roamer) connect(c Candidate, done func(error)) {
	r.switching = true
	finish := func(err error) {
		r.switching = false
		if done != nil {
			done(err)
		}
	}
	if c.Home {
		r.m.ColdSwitchHome(c.Iface, c.Gateway, finish)
		return
	}
	r.m.ColdSwitch(c.Iface, finish)
}
