package scenario

import (
	"fmt"
	"math"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/mip"
)

const (
	// stepChunk is the granularity at which asynchronous steps advance the
	// loop while polling for completion. 20ms matches the hand-written
	// experiment drivers this package replaced — the chunk size quantizes
	// each step's virtual end time, so it is part of the behavior contract.
	stepChunk = 20 * time.Millisecond
	// defaultStepTimeout bounds an asynchronous step without an explicit
	// timeout.
	defaultStepTimeout = 30 * time.Second
)

// fits refuses a wait the clock cannot make: a negative one, or one that
// would carry it past the largest sim.Time, where RunUntil's deadline wraps
// into the past. The margin covers the stepChunk a polled wait may overrun
// by and the settle after a drain.
func (w *World) fits(d time.Duration) error {
	room := time.Duration(math.MaxInt64-int64(w.Loop.Now())) - stepChunk - runSettle
	switch {
	case d < 0:
		return fmt.Errorf("%v is negative", d)
	case d > room:
		return fmt.Errorf("%v runs past the end of simulated time", d)
	}
	return nil
}

// RunUntil advances the simulation in stepChunk increments until cond
// holds or maxWait elapses, reporting whether cond was met.
func (w *World) RunUntil(maxWait time.Duration, cond func() bool) bool {
	deadline := w.Loop.Now().Add(maxWait)
	for !cond() && w.Loop.Now() < deadline {
		w.Loop.RunFor(stepChunk)
	}
	return cond()
}

// Await starts an asynchronous operation — a switch, a connect — and
// advances the loop in stepChunk increments until it reports its outcome
// or maxWait elapses. It is the one way to wait for a switch: itinerary
// steps and the experiment drivers both come through here, so a failed or
// stalled operation is always an error, never an ignored callback.
func (w *World) Await(maxWait time.Duration, start func(done func(error))) error {
	if err := w.fits(maxWait); err != nil {
		return fmt.Errorf("timeout %w", err)
	}
	finished, fail := false, error(nil)
	start(func(err error) { fail, finished = err, true })
	if !w.RunUntil(maxWait, func() bool { return finished }) || fail != nil {
		return fmt.Errorf("done=%v err=%v", finished, fail)
	}
	return nil
}

// resolveMobile returns the mobile a step addresses: the named one, or
// the spec's sole mobile.
func (w *World) resolveMobile(st Step) (*Mobile, *mip.MobileHost, error) {
	name := st.Mobile
	if name == "" {
		if len(w.Spec.Topology.Mobiles) != 1 {
			return nil, nil, fmt.Errorf("step %s: mobile must be named", st.Op)
		}
		name = w.Spec.Topology.Mobiles[0].Name
	}
	mh, ok := w.Mobiles[name]
	if !ok {
		return nil, nil, fmt.Errorf("step %s: unknown mobile %q", st.Op, name)
	}
	for i := range w.Spec.Topology.Mobiles {
		if w.Spec.Topology.Mobiles[i].Name == name {
			return &w.Spec.Topology.Mobiles[i], mh, nil
		}
	}
	return nil, nil, fmt.Errorf("step %s: mobile %q not in spec", st.Op, name)
}

// resolveIface returns the managed interface a step addresses.
func (w *World) resolveIface(m *Mobile, st Step) (*mip.ManagedIface, error) {
	mi, ok := w.MIfaces[m.Name+"/"+st.Iface]
	if !ok {
		return nil, fmt.Errorf("step %s: mobile %q has no iface %q", st.Op, m.Name, st.Iface)
	}
	return mi, nil
}

// Step executes one itinerary operation. Synchronous ops ("move",
// "settle") return immediately after their effect; asynchronous ops
// (switches, connects) advance the loop in stepChunk increments until the
// operation completes or the step's timeout (default 30s) elapses.
func (w *World) Step(st Step) error {
	if st.Op == "settle" {
		if err := w.fits(st.For.D()); err != nil {
			return fmt.Errorf("step settle: for %w", err)
		}
		w.Loop.RunFor(st.For.D())
		return nil
	}
	m, mh, err := w.resolveMobile(st)
	if err != nil {
		return err
	}
	var mi *mip.ManagedIface // every op but an address switch names the interface it moves
	if st.Op != "switch-address" {
		if mi, err = w.resolveIface(m, st); err != nil {
			return err
		}
	}
	gateway := func() ip.Addr {
		if st.Gateway != "" {
			return ip.MustParseAddr(st.Gateway)
		}
		return ip.MustParseAddr(m.HomeAgent)
	}
	var start func(done func(error))
	switch st.Op {
	case "move":
		// Carrying the device to another wall jack is instantaneous; the
		// reconnect is the following cold-switch / hot-switch step.
		mi.Iface().Device().Detach()
		mi.Iface().Device().Attach(w.Networks[st.To])
		return nil
	case "connect-home":
		start = func(done func(error)) { mh.ConnectHome(mi, gateway(), done) }
	case "cold-switch":
		start = func(done func(error)) { mh.ColdSwitch(mi, done) }
	case "cold-switch-home":
		start = func(done func(error)) { mh.ColdSwitchHome(mi, gateway(), done) }
	case "hot-switch":
		start = func(done func(error)) { mh.MakeBeforeBreak(mi, done) }
	case "switch-address":
		start = func(done func(error)) { mh.SwitchAddress(ip.MustParseAddr(st.Addr), done) }
	default:
		return fmt.Errorf("step: unknown op %q", st.Op)
	}

	timeout := st.Timeout.D()
	if timeout == 0 {
		timeout = defaultStepTimeout
	}
	if err := w.Await(timeout, start); err != nil {
		return fmt.Errorf("step %s: %w", st.Op, err)
	}
	return nil
}

// RunItinerary executes steps in order, stopping at the first failure.
func (w *World) RunItinerary(steps []Step) error {
	for i := range steps {
		if err := w.Step(steps[i]); err != nil {
			return fmt.Errorf("itinerary step %d: %w", i, err)
		}
	}
	return nil
}
