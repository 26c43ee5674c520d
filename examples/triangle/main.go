// Triangle: the Mobile Policy Table in action (Section 3.2 of the paper).
// The mobile host visits a foreign network and talks to two correspondents
// under each sending policy — basic reverse tunneling, the triangle-route
// optimization, and encapsulated-direct to a smart correspondent — then
// hits a transit-traffic filter, detects it by probing, and falls back.
//
//	go run ./examples/triangle
package main

import (
	"fmt"
	"log"
	"time"

	mosquitonet "mosquitonet"
)

func main() {
	tb := mosquitonet.NewTestbed(3)
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)
	fmt.Printf("mobile host visiting %v with care-of %v\n\n", mosquitonet.DeptPrefix, tb.MH.CareOf())

	// Echo service on the campus correspondent; it is also "smart" (can
	// decapsulate IP-in-IP, like recent Linux development kernels).
	smart := mosquitonet.MakeSmartCorrespondent(tb.CampusCH.Host())
	var srv *mosquitonet.UDPSocket
	srv, err := tb.CampusCH.UDP(mosquitonet.Unspecified, 7, func(d mosquitonet.Datagram) {
		srv.SendTo(d.From, d.FromPort, d.Payload)
	})
	check(err)

	rtt := func(label string) {
		var took time.Duration
		got := false
		var start mosquitonet.Time
		sock, err := tb.MHTS.UDP(mosquitonet.Unspecified, 0, func(mosquitonet.Datagram) {
			took = tb.Loop.Now().Sub(start)
			got = true
		})
		check(err)
		defer sock.Close()
		start = tb.Loop.Now()
		sock.SendTo(mosquitonet.CampusCHAddr, 7, []byte("x"))
		tb.Run(3 * time.Second)
		if got {
			fmt.Printf("  %-42s rtt=%v\n", label, took.Round(10*time.Microsecond))
		} else {
			fmt.Printf("  %-42s LOST\n", label)
		}
	}

	policy := tb.MH.Policy()
	fmt.Println("policies toward the campus correspondent:")
	policy.SetHost(mosquitonet.CampusCHAddr, mosquitonet.PolicyTunnel)
	rtt("tunnel (basic protocol, via home agent)")
	policy.SetHost(mosquitonet.CampusCHAddr, mosquitonet.PolicyTriangle)
	rtt("triangle (direct, home address as source)")
	policy.SetHost(mosquitonet.CampusCHAddr, mosquitonet.PolicyEncapDirect)
	rtt("encap-direct (smart CH decapsulates)")
	fmt.Printf("  smart correspondent decapsulated %d packets\n\n", smart.Stats().Decapsulated)

	// Now the visited network's router starts forbidding transit traffic:
	// packets leaving 36.8 with a non-local source are dropped, which is
	// exactly what breaks the triangle route in the paper.
	fmt.Println("enabling a transit-traffic filter on the visited router…")
	tb.Router.IfaceByName("r-" + tb.DeptNet.Name()).SetTransitFilter(true)
	policy.SetHost(mosquitonet.CampusCHAddr, mosquitonet.PolicyTriangle)
	rtt("triangle through the filter")

	fmt.Println("\nprobing the correspondent (the paper's failed-ping detection)…")
	tb.MH.ProbeTriangle(mosquitonet.CampusCHAddr, 2*time.Second, func(ok bool) {
		fmt.Printf("  probe result: triangle usable = %v\n", ok)
	})
	tb.Run(10 * time.Second)
	fmt.Printf("  policy table now caches: %v -> %v\n",
		mosquitonet.CampusCHAddr, policy.Lookup(mosquitonet.CampusCHAddr))
	rtt("after fallback (tunneled again)")

	fmt.Println("\nMobile Policy Table:")
	fmt.Print(policy)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
