// Command mnping runs ICMP echo measurements inside the simulated paper
// testbed: it parks the mobile host at home, on the visited Ethernet, or
// on the radio, and pings a chosen landmark, printing per-probe RTTs like
// the ping utility the paper's measurements were built on.
//
// Usage:
//
//	mnping [-seed N] [-from home|dept|radio] [-to ha|router|ch|campus] [-count N]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	mosquitonet "mosquitonet"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	from := flag.String("from", "dept", "mobile host location: home, dept, radio")
	to := flag.String("to", "ch", "target: ha, ch, campus")
	count := flag.Int("count", 10, "number of echo requests")
	size := flag.Int("size", 56, "payload bytes")
	local := flag.Bool("local", false, "ping in the local role (care-of source) instead of via mobile IP")
	flag.Parse()

	tb := mosquitonet.NewTestbed(*seed)
	switch *from {
	case "home":
		tb.MustConnectHome()
	case "dept":
		tb.MoveEthTo(tb.DeptNet)
		tb.MustConnectForeign(tb.Eth)
	case "radio":
		tb.MustConnectForeign(tb.Strip)
	default:
		fmt.Fprintf(os.Stderr, "mnping: unknown location %q\n", *from)
		os.Exit(2)
	}

	var dst mosquitonet.Addr
	switch *to {
	case "ha":
		dst = mosquitonet.RouterHomeAddr
	case "ch":
		dst = mosquitonet.CHAddr
	case "campus":
		dst = mosquitonet.CampusCHAddr
	default:
		fmt.Fprintf(os.Stderr, "mnping: unknown target %q\n", *to)
		os.Exit(2)
	}

	bound := mosquitonet.Unspecified
	if *local {
		bound = tb.MH.CareOf()
		if bound.IsUnspecified() {
			bound = tb.MH.HomeAddr()
		}
	}

	fmt.Printf("PING %v from %s (mh at %s, care-of %v)\n", dst, bound, *from, tb.MH.CareOf())
	received, lost := 0, 0
	var sum time.Duration
	for i := 0; i < *count; i++ {
		seq := i + 1
		tb.MH.Host().ICMP().Ping(dst, bound, *size, 3*time.Second, func(r mosquitonet.PingResult) {
			switch {
			case r.TimedOut:
				lost++
				fmt.Printf("  seq=%d timeout\n", seq)
			case r.Unreachable:
				lost++
				fmt.Printf("  seq=%d unreachable (code %d) from %v\n", seq, r.Code, r.From)
			default:
				received++
				sum += r.RTT
				fmt.Printf("  %d bytes from %v: seq=%d time=%v\n", *size, r.From, seq, r.RTT.Round(10*time.Microsecond))
			}
		})
		tb.Run(3500 * time.Millisecond)
	}
	fmt.Printf("--- %v statistics ---\n%d transmitted, %d received, %.0f%% loss",
		dst, *count, received, 100*float64(lost)/float64(*count))
	if received > 0 {
		fmt.Printf(", avg rtt %v", (sum / time.Duration(received)).Round(10*time.Microsecond))
	}
	fmt.Println()
}
