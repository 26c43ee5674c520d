package scenario

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func adminWorld(t *testing.T) (*World, *Console, *strings.Builder) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(catalogDir, "faultdemo.json"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Compile(1, spec)
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	return w, NewConsole(w, &out), &out
}

func TestConsoleExec(t *testing.T) {
	w, c, out := adminWorld(t)

	run := func(cmd string) string {
		t.Helper()
		out.Reset()
		if err := c.Exec(cmd); err != nil {
			t.Fatalf("%s: %v", cmd, err)
		}
		return out.String()
	}

	if got := run("show hosts"); !strings.Contains(got, "router") || !strings.Contains(got, "mh") {
		t.Errorf("show hosts missing hosts:\n%s", got)
	}
	if got := run("show routes router"); !strings.Contains(got, "36.135.0.0/16") {
		t.Errorf("show routes missing connected route:\n%s", got)
	}

	run("add-route ch 10.9.0.0/16 36.8.0.1 eth0")
	if got := run("show routes ch"); !strings.Contains(got, "10.9.0.0/16") {
		t.Errorf("added route not visible:\n%s", got)
	}
	run("del-route ch 10.9.0.0/16")
	if got := run("show routes ch"); strings.Contains(got, "10.9.0.0/16") {
		t.Errorf("deleted route still visible:\n%s", got)
	}

	// Faults armed via the console flow through the same injector as
	// scheduled spec faults: span opens on strike, heals on schedule.
	run("fault ha-crash router 500ms")
	w.RunFor(time.Second)
	recs := w.Faults.Records()
	if len(recs) != 1 || recs[0].Kind != "fault.ha.crash" {
		t.Fatalf("fault records = %+v, want one healed fault.ha.crash", recs)
	}
	if got := run("show faults"); !strings.Contains(got, "fault.ha.crash") {
		t.Errorf("show faults missing record:\n%s", got)
	}

	for _, bad := range []string{
		"explode",
		"show routes nobody",
		"del-route ch 10.9.0.0/16",
		"fault ha-crash ghost 1s",
		"fault loss-burst dept 2.0 1s",
	} {
		if err := c.Exec(bad); err == nil {
			t.Errorf("%q was accepted", bad)
		}
	}
}

func TestConsoleLoad(t *testing.T) {
	w, c, out := adminWorld(t)
	script := `# comment line

show hosts
at 100ms fault ha-crash router 200ms
`
	if err := c.Load(strings.NewReader(script)); err != nil {
		t.Fatal(err)
	}
	if len(w.Faults.Records()) != 0 {
		t.Error("scheduled fault struck before its offset")
	}
	w.RunFor(time.Second)
	if recs := w.Faults.Records(); len(recs) != 1 || recs[0].Kind != "fault.ha.crash" {
		t.Errorf("fault records = %+v, want one healed fault.ha.crash", recs)
	}
	if err := c.Load(strings.NewReader("at soon show hosts\n")); err == nil {
		t.Error("bad offset accepted")
	}
	if err := c.Load(strings.NewReader("frobnicate\n")); err == nil {
		t.Error("bad immediate command accepted")
	}
	_ = out
}

// TestMalformedFaultInputIsAnError: a probability that is not a number and
// a duration whose heal instant overflows simulated time are refused when
// the fault is armed, and an "at" offset in the past is refused when the
// script loads — none of them is accepted, clamped or left to panic the
// loop later.
func TestMalformedFaultInputIsAnError(t *testing.T) {
	w, c, _ := adminWorld(t)
	w.RunFor(30 * time.Second) // past the spec's own faults
	struck := len(w.Faults.Records())
	for _, bad := range []string{
		"fault loss-burst dept NaN 1s",
		"fault loss-burst dept -NaN 1s",
		"fault link-flap r-net-36.8 2562047h47m",
		"fault ha-crash router 2562047h47m16s",
	} {
		if err := c.Exec(bad); err == nil {
			t.Errorf("%q was accepted", bad)
		}
	}
	w.RunFor(time.Second)
	if recs := w.Faults.Records(); len(recs) != struck {
		t.Errorf("refused faults struck: %+v", recs[struck:])
	}

	// The injector checks the strike instant as well as the heal.
	if err := w.Faults.Schedule(Fault{Kind: "ha-crash", Router: "router", At: Duration(math.MaxInt64 - 1), For: Duration(time.Second)}); err == nil {
		t.Error("fault striking past the end of simulated time was accepted")
	}

	for _, script := range []string{"at -1s show hosts\n", "at 2562047h47m show hosts\n"} {
		if err := c.Load(strings.NewReader(script)); err == nil {
			t.Errorf("%q was accepted", script)
		}
	}

	// A spec cannot spell NaN in JSON, but one built in Go can.
	spec := w.Spec
	for i := range spec.Faults {
		if spec.Faults[i].Kind == "loss-burst" {
			spec.Faults[i].Prob = math.NaN()
		}
	}
	if err := Validate(spec); err == nil || !strings.Contains(err.Error(), "prob NaN") {
		t.Errorf("validator on prob NaN: %v", err)
	}
}
