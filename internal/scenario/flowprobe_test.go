package scenario

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"mosquitonet/internal/ip"
)

// figure5World compiles the paper's Figure 5 testbed from the catalog.
func figure5World(t *testing.T, seed int64) *World {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(catalogDir, "figure5.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compile(seed, spec)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

var (
	mhHome     = ip.MustParseAddr("36.135.0.7")
	routerHome = ip.MustParseAddr("36.135.0.1")
)

// TestEchoProbeAccounting: on a lossless path the echo form loses nothing,
// Pause stops transmission, and Start after Stop does nothing.
func TestEchoProbeAccounting(t *testing.T) {
	w := figure5World(t, 1)
	mh := w.Mobiles["mh"]
	if err := w.Await(10*time.Second, func(done func(error)) {
		mh.ConnectHome(w.MIfaces["mh/eth0"], routerHome, done)
	}); err != nil {
		t.Fatal(err)
	}
	probe, err := NewEchoProbe(w.Loop, w.Stacks["ch"], w.Stacks["mh"], mhHome, 7, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	probe.Start()
	w.RunFor(5 * time.Second)
	probe.Pause()
	w.RunFor(2 * time.Second)
	sent, recv, lost, _ := probe.Flow().Totals()
	if sent == 0 {
		t.Fatal("probe sent nothing")
	}
	if lost != 0 {
		t.Fatalf("lossless path lost packets: sent=%d recv=%d", sent, recv)
	}
	sentNow := func() int { s, _, _, _ := probe.Flow().Totals(); return s }
	w.RunFor(2 * time.Second)
	if sentNow() != sent {
		t.Fatal("probe kept sending while paused")
	}
	probe.Stop()
	probe.Start() // no-op after Stop
	w.RunFor(time.Second)
	if sentNow() != sent {
		t.Fatal("probe restarted after Stop")
	}
}

// TestEchoProbeSimultaneousBindingDuplicates: while the home agent holds
// simultaneous bindings it tunnels every probe to both care-of addresses,
// the mobile host echoes both copies, and the second echo of a sequence
// number is the tracker's duplicate — never a second receipt.
func TestEchoProbeSimultaneousBindingDuplicates(t *testing.T) {
	w := figure5World(t, 1)
	mh := w.Mobiles["mh"]
	eth, strip := w.MIfaces["mh/eth0"], w.MIfaces["mh/strip0"]
	dev := w.Devices["mh-eth"]
	dev.Detach()
	dev.Attach(w.Networks["dept"])
	if err := w.Await(30*time.Second, func(done func(error)) { mh.ConnectForeign(eth, done) }); err != nil {
		t.Fatal(err)
	}
	probe, err := NewEchoProbe(w.Loop, w.Stacks["ch"], w.Stacks["mh"], mhHome, 7, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Await(30*time.Second, func(done func(error)) {
		strip.Iface().Device().BringUp(func() {
			mh.Prepare(strip, func(err error) {
				if err != nil {
					done(err)
					return
				}
				mh.AddSimultaneousBinding(strip.Addr(), done)
			})
		})
	}); err != nil {
		t.Fatal(err)
	}
	probe.Start()
	w.RunFor(3 * time.Second)
	probe.Pause()
	w.RunFor(2 * time.Second)

	sent, recv, _, _ := probe.Flow().Totals()
	dups, unknown := probe.Flow().Anomalies()
	if dups == 0 {
		t.Fatal("no duplicated echoes: the simultaneous binding did not take")
	}
	if recv > sent || unknown != 0 {
		t.Fatalf("sent=%d recv=%d unknown=%d: duplicates counted as receipts", sent, recv, unknown)
	}
	if echoes := int(probe.src.Received); echoes != recv+dups {
		t.Fatalf("%d echoes came back, tracker accounts %d received + %d duplicates", echoes, recv, dups)
	}
}
