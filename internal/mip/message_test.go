package mip

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mosquitonet/internal/ip"
)

// quickConfig is a testing/quick configuration whose generator has a fixed
// seed, so a failing property reproduces on the next run (maxCount 0 keeps
// quick's default of 100).
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1996))}
}

func TestRegRequestRoundTrip(t *testing.T) {
	f := func(lifetime uint16, home, agent, careof [4]byte, id uint64) bool {
		r := &RegRequest{Lifetime: lifetime, HomeAddr: home, HomeAgent: agent, CareOf: careof, ID: id}
		var got RegRequest
		return UnmarshalRegRequest(&got, r.Marshal()) == nil && got == *r
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

func TestRegReplyRoundTrip(t *testing.T) {
	f := func(code uint8, lifetime uint16, home, agent [4]byte, id uint64) bool {
		r := &RegReply{Code: code, Lifetime: lifetime, HomeAddr: home, HomeAgent: agent, ID: id}
		var got RegReply
		return UnmarshalRegReply(&got, r.Marshal()) == nil && got == *r
	}
	if err := quick.Check(f, quickConfig(200)); err != nil {
		t.Fatal(err)
	}
}

func TestAgentAdvertRoundTrip(t *testing.T) {
	a := &AgentAdvert{Agent: ip.MustParseAddr("10.2.0.2"), Lifetime: 300, Seq: 17}
	got, err := UnmarshalAgentAdvert(a.Marshal())
	if err != nil || *got != *a {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestPFANotifyRoundTrip(t *testing.T) {
	p := &PFANotify{HomeAddr: ip.MustParseAddr("10.1.0.7"), NewCareOf: ip.MustParseAddr("10.3.0.100"), Lifetime: 30}
	got, err := UnmarshalPFANotify(p.Marshal())
	if err != nil || *got != *p {
		t.Fatalf("round trip: %+v %v", got, err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if err := UnmarshalRegRequest(new(RegRequest), nil); err != ErrShortMessage {
		t.Errorf("request short: %v", err)
	}
	if err := UnmarshalRegReply(new(RegReply), append([]byte{TypeRegReply}, 0, 0, 0)); err != ErrShortMessage {
		t.Errorf("reply short: %v", err)
	}
	if _, err := UnmarshalAgentAdvert(append([]byte{TypeAgentAdvert}, 0, 0)); err != ErrShortMessage {
		t.Errorf("advert short: %v", err)
	}
	if _, err := UnmarshalPFANotify(append([]byte{TypePFANotify}, 0, 0)); err != ErrShortMessage {
		t.Errorf("pfa short: %v", err)
	}
	req := (&RegRequest{}).Marshal()
	if err := UnmarshalRegReply(new(RegReply), req); err != ErrBadType {
		t.Errorf("type confusion: %v", err)
	}
	if err := UnmarshalRegRequest(new(RegRequest), (&RegReply{}).Marshal()); err != ErrBadType {
		t.Errorf("type confusion: %v", err)
	}
	if _, err := MessageType(nil); err != ErrShortMessage {
		t.Errorf("MessageType: %v", err)
	}
	if typ, _ := MessageType(req); typ != TypeRegRequest {
		t.Errorf("MessageType = %d", typ)
	}
}

func TestRequestSemantics(t *testing.T) {
	r := &RegRequest{Lifetime: 0}
	if !r.IsDeregistration() {
		t.Fatal("zero lifetime must be deregistration")
	}
	r.Lifetime = 60
	if r.IsDeregistration() {
		t.Fatal("nonzero lifetime is not deregistration")
	}
	ok := &RegReply{Code: CodeAccepted}
	if !ok.Accepted() {
		t.Fatal("code 0 must be accepted")
	}
	no := &RegReply{Code: CodeDeniedUnspecified}
	if no.Accepted() {
		t.Fatal("code 64 must be denied")
	}
}

func TestCodeString(t *testing.T) {
	for code, want := range map[uint8]string{
		CodeAccepted: "accepted", CodeDeniedUnspecified: "denied",
		CodeDeniedBadHomeAddr: "denied-bad-home-address", 99: "code(99)",
	} {
		if CodeString(code) != want {
			t.Errorf("CodeString(%d) = %q", code, CodeString(code))
		}
	}
}
