// Handoff: the paper's headline scenario — a long-lived stream (here a
// TCP-like connection, standing in for the remote login with active
// processes the paper motivates) survives hot and cold switches between a
// wired Ethernet and a Metricom-style radio, with the loss visible only as
// retransmissions.
//
//	go run ./examples/handoff
package main

import (
	"fmt"
	"log"
	"time"

	mosquitonet "mosquitonet"
)

func main() {
	tb := mosquitonet.NewTestbed(7)

	// The mobile host starts on the visited department Ethernet.
	tb.MoveEthTo(tb.DeptNet)
	tb.MustConnectForeign(tb.Eth)

	// A "remote login" server on the correspondent host: it echoes every
	// line it receives.
	var server *mosquitonet.Conn
	_, err := tb.CH.Listen(mosquitonet.Unspecified, 513, func(c *mosquitonet.Conn) {
		server = c
		c.OnData = func(b []byte) { c.Write(b) }
	})
	check(err)

	session, err := tb.MHTS.Connect(mosquitonet.Unspecified, mosquitonet.CHAddr, 513)
	check(err)
	received := 0
	session.OnData = func(b []byte) {
		received++
		fmt.Printf("  [%8v] echo %d: %q\n", tb.Loop.Now().Duration().Round(time.Millisecond), received, b)
	}
	tb.Run(2 * time.Second)
	la, _ := session.LocalAddr()
	fmt.Printf("session established, bound to %v (the home address)\n", la)

	say := func(msg string) {
		check(session.Write([]byte(msg)))
		tb.Run(3 * time.Second)
	}
	say("typed on the wire")

	// Cold switch to the radio: the wire goes away before the radio is up.
	fmt.Println("-- cold switch to the radio (wire unplugged first)")
	done := false
	tb.MH.ColdSwitch(tb.Strip, func(err error) { check(err); done = true })
	for !done {
		tb.Run(100 * time.Millisecond)
	}
	fmt.Printf("   now at care-of %v; connection state: %v, retransmits so far: %d\n",
		tb.MH.CareOf(), session.State(), session.Stats().Retransmits)
	say("typed over the radio")

	// Hot switch back: bring the wire up *before* leaving the radio.
	fmt.Println("-- hot switch back to the wire (radio stays up during the switch)")
	done = false
	tb.MH.MakeBeforeBreak(tb.Eth, func(err error) { check(err); done = true })
	for !done {
		tb.Run(100 * time.Millisecond)
	}
	fmt.Printf("   now at care-of %v\n", tb.MH.CareOf())
	say("typed on the wire again")

	session.Close()
	tb.Run(5 * time.Second)
	fmt.Printf("session closed cleanly: %v / server %v\n", session.State(), server.State())
	fmt.Printf("stream stats: %+v\n", session.Stats())
	fmt.Printf("the connection survived %d cold and %d hot switches\n",
		tb.MH.Stats().ColdSwitches, tb.MH.Stats().HotSwitches)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
