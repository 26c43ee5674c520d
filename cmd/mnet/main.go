// Command mnet narrates the handoff scenario's itinerary through the
// paper's testbed: the mobile host starts at home, visits the department
// Ethernet, switches address there, switches to the radio (cold),
// hot-switches back to the wire, and returns home — while a correspondent
// streams UDP echoes to its home address every 250 ms throughout. Every
// protocol event (registrations, bindings, handoffs) is printed as it
// happens, which makes this the quickest way to *watch* the system work.
//
// Usage:
//
//	mnet [-seed N] [-trace] [-dump] [-metrics 5s] [-spans] [-dump-json file] [-admin script]
//
// The -admin flag loads a console script (or stdin with '-') against the
// compiled world before the itinerary starts: immediate commands inspect
// or mutate state at t=0, and "at <offset> <command>" schedules
// mutations — fault injection, route edits — mid-run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	mosquitonet "mosquitonet"
	"mosquitonet/internal/capture"
	"mosquitonet/internal/link"
	"mosquitonet/internal/scenario"
	"mosquitonet/internal/testbed"
	"mosquitonet/internal/trace"
)

// streamInterval is the correspondent's echo-stream period.
const streamInterval = 250 * time.Millisecond

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	showTrace := flag.Bool("trace", false, "print every protocol trace event")
	dump := flag.Bool("dump", false, "print a tcpdump-style decode of every frame on every network")
	metricsEvery := flag.Duration("metrics", 0, "print the telemetry table every interval of virtual time (0 = only at the end)")
	spans := flag.Bool("spans", false, "print the span tree and kind counts at the end")
	dumpJSON := flag.String("dump-json", "", "write a JSONL capture of every frame on every network to this file")
	adminScript := flag.String("admin", "", "admin console script file ('-' for stdin): inspect/mutate routes, bindings, and faults; 'at <offset> <cmd>' schedules mid-run (see the 'help' command)")
	flag.Parse()

	spec := testbed.MustScenario("handoff")
	tb, err := testbed.NewFromSpec(*seed, spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mnet:", err)
		os.Exit(1)
	}
	if *adminScript != "" {
		console := scenario.NewConsole(tb.World, os.Stdout)
		r := io.Reader(os.Stdin)
		if *adminScript != "-" {
			f, err := os.Open(*adminScript)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mnet: admin:", err)
				os.Exit(1)
			}
			defer f.Close()
			r = f
		}
		if err := console.Load(r); err != nil {
			fmt.Fprintln(os.Stderr, "mnet: admin:", err)
			os.Exit(1)
		}
	}
	if *metricsEvery > 0 {
		var tick func()
		tick = func() {
			fmt.Printf("[%v] %s\n", tb.Loop.Now(), tb.Metrics.Snapshot().Table())
			tb.Loop.Schedule(*metricsEvery, tick)
		}
		tb.Loop.Schedule(*metricsEvery, tick)
	}
	if *showTrace {
		tb.Tracer.Hook = func(e trace.Event) { fmt.Println("   ", e) }
	}
	// The JSONL file is written frame by frame as the capture tap hands
	// each one over.
	var jsonFile *os.File
	var jsonEnc *json.Encoder
	var frames int
	var jsonErr error
	if *dumpJSON != "" {
		if jsonFile, err = os.Create(*dumpJSON); err != nil {
			fmt.Fprintln(os.Stderr, "mnet: dump-json:", err)
			os.Exit(1)
		}
		jsonEnc = json.NewEncoder(jsonFile)
	}
	if *dump || jsonEnc != nil {
		consume := func(e capture.Entry) {
			if *dump {
				fmt.Println("   #", e)
			}
			if jsonEnc != nil && jsonErr == nil {
				frames++
				jsonErr = jsonEnc.Encode(e)
			}
		}
		for _, n := range []*link.Network{tb.HomeNet, tb.DeptNet, tb.RadioNet, tb.CampusNet, tb.SlowNet} {
			capture.Tap(tb.Loop, n, consume)
		}
	}
	tb.MH.OnLinkChange = func(c mosquitonet.LinkChange) {
		where := "foreign network"
		if c.AtHome {
			where = "home network"
		}
		fmt.Printf("[%v] link change: %s via %s (%s), care-of %v\n",
			tb.Loop.Now(), where, c.Iface, c.Medium.Name, c.CareOf)
	}
	tb.MH.OnRegistered = func(careOf mosquitonet.Addr) {
		fmt.Printf("[%v] registered care-of %v at the home agent\n", tb.Loop.Now(), careOf)
	}
	tb.MH.OnDeregistered = func() {
		fmt.Printf("[%v] deregistered (back home)\n", tb.Loop.Now())
	}

	fmt.Println("== MosquitoNet roaming scenario ==")
	fmt.Printf("home %v  dept %v  radio %v  correspondent %v\n\n",
		testbed.HomePrefix, testbed.DeptPrefix, testbed.RadioPrefix, testbed.CHAddr)

	// The itinerary is the handoff scenario's: the narrator only names each
	// step and reports on the stream whenever the host has settled.
	var probe *scenario.FlowProbe
	report := func() {
		where := "at home"
		if !tb.MH.AtHome() {
			where = fmt.Sprintf("care-of %v, tunneled via the home agent", tb.MH.CareOf())
		}
		sent, recv, _, _ := probe.Flow().Totals()
		fmt.Printf("   stream: %d sent, %d echoed (%s)\n\n", sent, recv, where)
	}
	moves := 0
	for i, st := range spec.Itinerary {
		switch st.Op {
		case "settle":
		case "move":
			fmt.Printf("-- carry %s to the %s subnet\n", st.Iface, st.To)
		case "switch-address":
			fmt.Printf("-- switch-address %s\n", st.Addr)
		default:
			fmt.Printf("-- %s %s\n", st.Op, st.Iface)
		}
		if err := tb.World.Step(st); err != nil {
			fmt.Fprintln(os.Stderr, "mnet:", err)
			os.Exit(1)
		}
		switch {
		case i == 0:
			var err error
			probe, err = scenario.NewEchoProbe(tb.Loop, tb.CH, tb.MHTS, testbed.MHHomeAddr, 7, streamInterval)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mnet:", err)
				os.Exit(1)
			}
			probe.Start()
		case st.Op == "settle":
			report()
		case st.Op != "move":
			moves++
		}
	}

	probe.Pause()
	tb.Run(spec.Traffic.Drain.D())
	sent, recv, lost, _ := probe.Flow().Totals()
	fmt.Printf("== done: %d probes sent, %d echoed, %d lost across %d moves ==\n", sent, recv, lost, moves)
	fmt.Printf("mobile host stats: %+v\n", tb.MH.Stats())
	fmt.Printf("home agent stats:  %+v\n", tb.HA.Stats())
	fmt.Printf("\nfinal %s", tb.Metrics.Snapshot().Table())

	if *spans {
		// The lifecycle tree, with the per-packet drop spans folded into
		// the kind-count summary below it.
		fmt.Printf("\n== span tree (drop spans summarized below) ==\n")
		fmt.Print(tb.Tracer.SpanTree("drop."))
		fmt.Printf("\n== span kinds ==\n")
		for _, kc := range tb.Tracer.SpanKindCounts() {
			fmt.Printf("  %7d  %s\n", kc.Count, kc.Kind)
		}
	}
	if jsonFile != nil {
		if cerr := jsonFile.Close(); jsonErr == nil {
			jsonErr = cerr
		}
		if jsonErr != nil {
			fmt.Fprintln(os.Stderr, "mnet: dump-json:", jsonErr)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %s (%d frames)\n", *dumpJSON, frames)
	}
}
