package mip

import (
	"testing"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/transport"
)

// The host's own exchange record, its registration socket and the home
// agent's binding and reply records are reused from one handoff to the next.
// These tests are the guards: whatever belonged to the exchange before must
// be inert once the record serves the next one.

// switchAddr starts an address switch and reports through the returned flags.
func (w *world) switchAddr(addr string) (done *bool, err *error) {
	done, err = new(bool), new(error)
	w.mh.SwitchAddress(ip.MustParseAddr(addr), func(e error) { *done, *err = true, e })
	return done, err
}

func TestSupersededExchangeIsInert(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	eth2 := w.prepareSecondIface()
	m := w.mh
	late, _ := mkHost(w.loop, w.forA, "late", "10.2.0.77/24", "10.2.0.1")
	lateSock, err := late.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Exchange n: the agent is down, so the request goes unanswered and a
	// retry timer is armed a second out.
	w.ha.Crash()
	doneN, _ := w.switchAddr("10.2.0.201")
	w.run(300 * time.Millisecond)
	if m.pending != &m.own || !m.regTimer.Active() {
		t.Fatalf("exchange n is not in flight on the host's own record: pending=%p own=%p timer active=%v", m.pending, &m.own, m.regTimer.Active())
	}
	idN, retryAt := m.own.req.ID, m.regTimer.At()

	// Exchange n+1 begins on the same record, still unanswered.
	doneN1, errN1 := w.switchAddr("10.2.0.202")
	w.run(200 * time.Millisecond)
	if m.pending != &m.own || m.own.req.ID == idN || m.own.req.CareOf != ip.MustParseAddr("10.2.0.202") {
		t.Fatalf("exchange n+1 did not take over the record: %+v", m.own.req)
	}
	before := m.Stats()

	// A late reply to exchange n, accepted and all: nothing may move.
	stale := &RegReply{Code: CodeAccepted, Lifetime: 60, HomeAddr: m.HomeAddr(), HomeAgent: w.ha.Addr(), ID: idN}
	lateSock.SendTo(ip.MustParseAddr("10.2.0.202"), Port, stale.Marshal())
	// ... and exchange n's retry timer comes due.
	w.loop.RunUntil(retryAt.Add(50 * time.Millisecond))
	after := m.Stats()
	if after.DropStaleReply != before.DropStaleReply+1 {
		t.Errorf("late reply: DropStaleReply %d -> %d, want one more", before.DropStaleReply, after.DropStaleReply)
	}
	if after.RegRequestsSent != before.RegRequestsSent || after.RegRetransmits != before.RegRetransmits {
		t.Errorf("exchange n's retry timer sent something: %+v -> %+v", before, after)
	}
	if after.Registrations != before.Registrations || m.pending != &m.own || m.own.tries != 1 || *doneN || *doneN1 {
		t.Errorf("the stale reply moved the exchange: registrations %d -> %d, tries %d, done n=%v n+1=%v",
			before.Registrations, after.Registrations, m.own.tries, *doneN, *doneN1)
	}

	// An additional binding runs beside the host's own exchange on a record
	// and socket of its own.
	sideDone := false
	var sideErr error
	m.AddSimultaneousBinding(eth2.Addr(), func(e error) { sideDone, sideErr = true, e })
	if m.pending != &m.own || m.own.req.Simultaneous() {
		t.Fatal("an additional binding took the host's own record")
	}

	// The agent comes back: n+1's own retry completes it, n never reports.
	w.ha.Restart()
	w.run(3 * time.Second)
	if !*doneN1 || *errN1 != nil || *doneN || m.pending != nil {
		t.Fatalf("after restart: n+1 done=%v err=%v, n done=%v, pending=%v", *doneN1, *errN1, *doneN, m.pending)
	}
	if !sideDone || sideErr != nil {
		t.Fatalf("additional binding: done=%v err=%v", sideDone, sideErr)
	}
	if b, ok := w.ha.Binding(m.HomeAddr()); !ok || b.CareOf != ip.MustParseAddr("10.2.0.202") {
		t.Fatalf("binding after the exchanges: %+v", b)
	}

	// The renewal timer n+1 armed belongs to n+1: exchange n+2 starts just
	// before it is due, and it must not fire into n+2's lifetime.
	renewAt := m.reregT.At()
	w.loop.RunUntil(renewAt.Add(-100 * time.Millisecond))
	doneN2, errN2 := w.switchAddr("10.2.0.203")
	w.run(50 * time.Millisecond)
	if !*doneN2 || *errN2 != nil {
		t.Fatalf("exchange n+2: done=%v err=%v", *doneN2, *errN2)
	}
	sent := m.Stats().RegRequestsSent
	w.loop.RunUntil(renewAt.Add(time.Second))
	if got := m.Stats().RegRequestsSent; got != sent || len(w.tr.Find(kRegRenew)) != 0 {
		t.Errorf("the superseded renewal timer fired: %d requests sent after n+2 (was %d), renew events %v",
			got, sent, w.tr.Find(kRegRenew))
	}
	if at := m.reregT.At(); at <= renewAt.Add(time.Second) {
		t.Errorf("n+2's renewal is due at %v, not after the superseded one at %v", at, renewAt)
	}
}

// TestHomeAgentRepliesKeepTheirOwnIDs re-registers a home address while the
// reply to its previous request is still waiting out the processing delay:
// both replies go out, each with the identification, code and lifetime of
// its own request, although binding and reply records are reused.
func TestHomeAgentRepliesKeepTheirOwnIDs(t *testing.T) {
	w := newWorld(t, 1)
	w.ha.SetProcessingDelay(20 * time.Millisecond)
	sender, _ := mkHost(w.loop, w.forA, "rogue", "10.2.0.77/24", "10.2.0.1")
	var replies []RegReply
	sock, err := sender.UDP(ip.Unspecified, 4343, func(d transport.Datagram) {
		var r RegReply
		if UnmarshalRegReply(&r, d.Payload) == nil {
			replies = append(replies, r)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	home, haAddr := ip.MustParseAddr("10.1.0.40"), ip.MustParseAddr(wHAAddr)
	send := func(id uint64, careOf string, lifetime uint16) {
		req := &RegRequest{Lifetime: lifetime, HomeAddr: home, HomeAgent: haAddr, CareOf: ip.MustParseAddr(careOf), ID: id}
		sock.SendTo(haAddr, Port, req.Marshal())
	}
	send(10, "10.2.0.77", 60)
	w.run(5 * time.Millisecond)
	send(11, "10.2.0.78", 30) // re-registration: the binding is updated in place
	w.run(5 * time.Millisecond)
	send(9, "10.2.0.79", 60) // replayed identification: denied
	w.run(5 * time.Millisecond)
	if len(replies) != 0 || sim.RecordsOf[delayedReply](w.loop).Free() != 0 {
		t.Fatalf("replies left before the processing delay: %v (idle records %d)", replies, sim.RecordsOf[delayedReply](w.loop).Free())
	}
	w.run(time.Second)
	want := []RegReply{
		{Code: CodeAccepted, Lifetime: 60, HomeAddr: home, HomeAgent: haAddr, ID: 10},
		{Code: CodeAccepted, Lifetime: 30, HomeAddr: home, HomeAgent: haAddr, ID: 11},
		{Code: CodeDeniedBadID, Lifetime: 60, HomeAddr: home, HomeAgent: haAddr, ID: 9},
	}
	if len(replies) != len(want) {
		t.Fatalf("got %d replies, want %d: %+v", len(replies), len(want), replies)
	}
	for i := range want {
		if replies[i] != want[i] {
			t.Errorf("reply %d = %+v, want %+v", i, replies[i], want[i])
		}
	}
	if b, ok := w.ha.Binding(home); !ok || b.CareOf != ip.MustParseAddr("10.2.0.78") || b.ID != 11 || len(b.Extras) != 0 {
		t.Errorf("binding = %+v, want the second request's", b)
	}
	if sim.RecordsOf[delayedReply](w.loop).Free() != 3 {
		t.Errorf("%d reply records came back, want 3", sim.RecordsOf[delayedReply](w.loop).Free())
	}
	// The three served requests recycled the records; a fourth takes one.
	send(12, "10.2.0.80", 60)
	w.run(time.Second)
	if len(replies) != 4 || replies[3].ID != 12 || sim.RecordsOf[delayedReply](w.loop).Free() != 3 {
		t.Errorf("after a fourth request: replies %+v, idle records %d", replies, sim.RecordsOf[delayedReply](w.loop).Free())
	}

	// The binding's lifetime timer was re-armed by each registration, not
	// stacked: it expires once, a lifetime after the last one.
	expired := w.ha.Stats().Expired
	w.run(61 * time.Second)
	if got := w.ha.Stats().Expired; got != expired+1 {
		t.Errorf("binding expired %d times, want once", got-expired)
	}
	if _, ok := w.ha.Binding(home); ok {
		t.Error("binding survived its lifetime")
	}
}

// TestBindingSnapshotIsTheCallers: a Binding handed out must not change
// under its holder when the agent updates the entry in place.
func TestBindingSnapshotIsTheCallers(t *testing.T) {
	w := newWorld(t, 1)
	w.goForeign()
	eth2 := w.prepareSecondIface()
	first, home := w.mh.CareOf(), w.mh.HomeAddr()
	added := false
	w.mh.AddSimultaneousBinding(eth2.Addr(), func(error) { added = true })
	w.run(time.Second)
	held, _ := w.ha.Binding(home)
	if !added || held.CareOf != eth2.Addr() || len(held.Extras) != 1 || held.Extras[0] != first {
		t.Fatalf("binding = %+v, want %v with %v beside it", held, eth2.Addr(), first)
	}
	// A plain registration collapses the set: the entry is rewritten in
	// place, and its Extras array is reused by the binding after that.
	switched, _ := w.switchAddr("10.2.0.210")
	w.run(time.Second)
	readded := false
	w.mh.AddSimultaneousBinding(eth2.Addr(), func(error) { readded = true })
	w.run(time.Second)
	now, _ := w.ha.Binding(home)
	if !*switched || !readded || len(now.Extras) != 1 || now.Extras[0] != ip.MustParseAddr("10.2.0.210") {
		t.Fatalf("binding = %+v, want %v with 10.2.0.210 beside it", now, eth2.Addr())
	}
	if held.Extras[0] != first {
		t.Errorf("the snapshot taken earlier now reads %+v: it aliased the table's entry", held)
	}
}
