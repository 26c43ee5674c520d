package mip

import (
	"bytes"
	"testing"

	"mosquitonet/internal/ip"
)

// The four registration-protocol parsers must never panic on arbitrary
// bytes, and every accepted message must survive Marshal∘Unmarshal with
// identical wire bytes.

func FuzzUnmarshalRegRequest(f *testing.F) {
	req := &RegRequest{
		Flags:     FlagSimultaneous,
		Lifetime:  300,
		HomeAddr:  ip.Addr{10, 0, 1, 40},
		HomeAgent: ip.Addr{10, 0, 1, 1},
		CareOf:    ip.Addr{10, 0, 2, 1},
		ID:        99,
	}
	f.Add(req.Marshal())
	f.Add((&RegRequest{}).Marshal())
	f.Add([]byte{TypeRegRequest, 0})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, r2 := new(RegRequest), new(RegRequest)
		if UnmarshalRegRequest(r, b) != nil {
			return
		}
		b1 := r.Marshal()
		if err := UnmarshalRegRequest(r2, b1); err != nil {
			t.Fatalf("re-marshaled request failed to parse: %v", err)
		}
		if *r2 != *r || !bytes.Equal(r2.Marshal(), b1) {
			t.Fatalf("round trip changed request: %+v -> %+v", r, r2)
		}
	})
}

func FuzzUnmarshalRegReply(f *testing.F) {
	rep := &RegReply{
		Code:      CodeAccepted,
		Lifetime:  300,
		HomeAddr:  ip.Addr{10, 0, 1, 40},
		HomeAgent: ip.Addr{10, 0, 1, 1},
		ID:        99,
	}
	f.Add(rep.Marshal())
	f.Add([]byte{TypeRegReply})
	f.Fuzz(func(t *testing.T, b []byte) {
		r, r2 := new(RegReply), new(RegReply)
		if UnmarshalRegReply(r, b) != nil {
			return
		}
		b1 := r.Marshal()
		if err := UnmarshalRegReply(r2, b1); err != nil {
			t.Fatalf("re-marshaled reply failed to parse: %v", err)
		}
		if *r2 != *r || !bytes.Equal(r2.Marshal(), b1) {
			t.Fatalf("round trip changed reply: %+v -> %+v", r, r2)
		}
	})
}

func FuzzUnmarshalAgentAdvert(f *testing.F) {
	adv := &AgentAdvert{Agent: ip.Addr{10, 0, 2, 1}, Lifetime: 600, Seq: 17}
	f.Add(adv.Marshal())
	f.Add([]byte{TypeAgentAdvert, 1, 2})
	f.Fuzz(func(t *testing.T, b []byte) {
		a, err := UnmarshalAgentAdvert(b)
		if err != nil {
			return
		}
		b1 := a.Marshal()
		a2, err := UnmarshalAgentAdvert(b1)
		if err != nil {
			t.Fatalf("re-marshaled advertisement failed to parse: %v", err)
		}
		if *a2 != *a || !bytes.Equal(a2.Marshal(), b1) {
			t.Fatalf("round trip changed advertisement: %+v -> %+v", a, a2)
		}
	})
}

func FuzzUnmarshalPFANotify(f *testing.F) {
	n := &PFANotify{HomeAddr: ip.Addr{10, 0, 1, 40}, NewCareOf: ip.Addr{10, 0, 3, 1}, Lifetime: 30}
	f.Add(n.Marshal())
	f.Add([]byte{TypePFANotify, 9})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := UnmarshalPFANotify(b)
		if err != nil {
			return
		}
		b1 := p.Marshal()
		p2, err := UnmarshalPFANotify(b1)
		if err != nil {
			t.Fatalf("re-marshaled notification failed to parse: %v", err)
		}
		if *p2 != *p || !bytes.Equal(p2.Marshal(), b1) {
			t.Fatalf("round trip changed notification: %+v -> %+v", p, p2)
		}
	})
}
