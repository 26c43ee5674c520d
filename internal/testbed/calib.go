// Package testbed reconstructs the paper's experimental environment
// (Figure 5) and its evaluation: the MosquitoNet home subnet 36.135, the
// Computer Science department subnet 36.8, the Metricom radio subnet
// 36.134, a Pentium-90 router with the home agent collocated on it, a
// Gateway Handbook 486 mobile host with a PCMCIA Ethernet card and a STRIP
// radio, and a correspondent host on 36.8.
//
// The substrate cannot know what a 1996 subnotebook's kernel took to
// process a packet; the calibration makes the simulated software costs
// land on the paper's measured registration time-line and loss windows, so
// the experiment harnesses reproduce the shape (and roughly the scale) of
// the published results. The calibration that runs lives in the figure5
// scenario spec (testdata/scenarios/figure5.json): router and home-agent
// costs, reconfiguration delays, bring-up times, DHCP think time — and
// nowhere else: hosts that ablations A2 and A3 build by hand read their
// costs from the compiled spec. This file holds the paper's own
// experiment parameters and reported numbers.
package testbed

import "time"

// Experiment parameters taken verbatim from Section 4.
const (
	// E1SendInterval: "a correspondent host continuously sends a UDP
	// packet to the mobile host every 10 milliseconds".
	E1SendInterval = 10 * time.Millisecond
	// E1Iterations: "twenty iterations of this experiment".
	E1Iterations = 20

	// F6SendInterval: "the correspondent host sends a UDP packet every
	// 250 milliseconds", chosen to match the radio RTT.
	F6SendInterval = 250 * time.Millisecond
	// F6Iterations: "after running each experiment 10 times".
	F6Iterations = 10

	// F7Iterations: "the data reflects the average of 10 tests".
	F7Iterations = 10
)

// Paper-reported values the harnesses compare against (EXPERIMENTS.md
// records ours next to these).
const (
	// PaperRegTotal is Figure 7's start-to-end address switch time.
	PaperRegTotal = 7390 * time.Microsecond
	// PaperRegRequestReply is Figure 7's request->reply latency.
	PaperRegRequestReply = 4790 * time.Microsecond
	// PaperHATurnaround is Figure 7's home-agent processing time.
	PaperHATurnaround = 1480 * time.Microsecond
	// PaperColdSwitchWindow bounds Figure 6's cold-switch loss window.
	PaperColdSwitchWindow = 1250 * time.Millisecond
	// PaperRadioRTTLow/High bound the radio round-trip time (Section 4).
	PaperRadioRTTLow  = 200 * time.Millisecond
	PaperRadioRTTHigh = 250 * time.Millisecond
)
