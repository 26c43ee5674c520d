package scenario

import (
	"fmt"
	"math"
	"time"

	"mosquitonet/internal/sim"
)

// FaultRecord is one injected fault's lifecycle, for the admin console
// and per-scenario reporting.
type FaultRecord struct {
	Kind   string   `json:"kind"`
	Target string   `json:"target"`
	Start  sim.Time `json:"start_ns"`
	End    sim.Time `json:"end_ns"` // 0 while still active
}

// Injector schedules fault events against a compiled world. Each fault
// strikes at its offset, heals after its duration, and emits one fault.*
// root span covering the outage; World.Run turns that span into the
// window flow trackers attribute disruption to — the same mechanism
// handoff root spans use.
type Injector struct {
	w       *World
	records []FaultRecord
}

func newInjector(w *World) *Injector { return &Injector{w: w} }

// Schedule arms one fault, relative to the current virtual time (zero at
// compile, "now" when issued from the admin console). The fault's
// references are resolved against the world immediately so a bad name
// fails at schedule time, not mid-run.
func (in *Injector) Schedule(f Fault) error {
	if _, ok := faultSpanKinds[f.Kind]; !ok {
		return fmt.Errorf("fault: unknown kind %q (want one of %v)", f.Kind, FaultKinds)
	}
	if f.For <= 0 {
		return fmt.Errorf("fault %s: needs a positive duration", f.Kind)
	}
	// The strike and heal instants must fit in sim.Time; past its end they
	// would wrap into the past.
	room := time.Duration(math.MaxInt64 - int64(in.w.Loop.Now()))
	if f.At < 0 || f.At.D() > room || f.For.D() > room-f.At.D() {
		return fmt.Errorf("fault %s: at %v for %v runs past the end of simulated time", f.Kind, f.At.D(), f.For.D())
	}
	switch f.Kind {
	case "link-flap":
		if _, ok := in.w.Devices[f.Device]; !ok {
			return fmt.Errorf("fault link-flap: unknown device %q", f.Device)
		}
	case "loss-burst":
		if _, ok := in.w.Networks[f.Subnet]; !ok {
			return fmt.Errorf("fault loss-burst: unknown subnet %q", f.Subnet)
		}
		if !(f.Prob > 0 && f.Prob < 1) { // NaN fails both
			return fmt.Errorf("fault loss-burst: prob %v out of range (0,1)", f.Prob)
		}
	case "ha-crash":
		if _, ok := in.w.HAs[f.Router]; !ok {
			return fmt.Errorf("fault ha-crash: no home agent on router %q", f.Router)
		}
	case "agent-delay":
		if _, ok := in.w.HAs[f.Router]; !ok {
			return fmt.Errorf("fault agent-delay: no home agent on router %q", f.Router)
		}
		if f.Delay <= 0 {
			return fmt.Errorf("fault agent-delay: needs a positive delay")
		}
	}
	in.w.Loop.Schedule(f.At.D(), func() { in.strike(f) })
	return nil
}

// strike applies the fault, opens its span, and schedules the heal.
func (in *Injector) strike(f Fault) {
	loop := in.w.Loop
	kind := faultSpanKinds[f.Kind]
	var target string
	var heal func()
	switch f.Kind {
	case "link-flap":
		d := in.w.Devices[f.Device]
		target = f.Device
		d.BringDown()
		heal = func() { d.BringUp(nil) }
	case "loss-burst":
		n := in.w.Networks[f.Subnet]
		target = n.Name()
		prev := n.SetLossProb(f.Prob)
		heal = func() { n.SetLossProb(prev) }
	case "ha-crash":
		ha := in.w.HAs[f.Router]
		target = f.Router
		ha.Crash()
		heal = func() { ha.Restart() }
	case "agent-delay":
		ha := in.w.HAs[f.Router]
		target = f.Router
		prev := ha.SetProcessingDelay(f.Delay.D())
		heal = func() { ha.SetProcessingDelay(prev) }
	default:
		return // Schedule already rejected unknown kinds
	}

	sp := in.w.Tracer.StartChild(nil, target, kind)
	sp.SetAttr("for", f.For.D().String())
	if f.Kind == "loss-burst" {
		sp.SetAttr("prob", fmt.Sprint(f.Prob))
	}
	if f.Kind == "agent-delay" {
		sp.SetAttr("delay", f.Delay.D().String())
	}
	rec := len(in.records)
	in.records = append(in.records, FaultRecord{Kind: kind, Target: target, Start: loop.Now()})

	loop.Schedule(f.For.D(), func() {
		heal()
		sp.Done()
		in.records[rec].End = loop.Now()
	})
}

// Records returns every fault's lifecycle record, in strike order.
func (in *Injector) Records() []FaultRecord {
	return append([]FaultRecord(nil), in.records...)
}

// String formats the injector state for the admin console.
func (in *Injector) String() string {
	if len(in.records) == 0 {
		return "no faults struck\n"
	}
	var b []byte
	for _, r := range in.records {
		state := "healed"
		if r.End == 0 {
			state = "active"
		}
		b = fmt.Appendf(b, "%-18s %-14s %s start=%v end=%v\n",
			r.Kind, r.Target, state, time.Duration(r.Start), time.Duration(r.End))
	}
	return string(b)
}
