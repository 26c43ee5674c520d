package mip

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mosquitonet/internal/ip"
)

// TestPolicyDefault: a destination no entry covers is tunneled, and
// deleting an entry falls back to tunneling.
func TestPolicyDefault(t *testing.T) {
	pt := NewPolicyTable()
	if pt.Lookup(ip.MustParseAddr("1.2.3.4")) != PolicyTunnel {
		t.Fatal("default not applied")
	}
	pt.SetHost(ip.MustParseAddr("1.2.3.4"), PolicyTriangle)
	pt.Delete(ip.MustParsePrefix("1.2.3.4/32"))
	if pt.Lookup(ip.MustParseAddr("1.2.3.4")) != PolicyTunnel || pt.Hits() != 0 {
		t.Fatal("deleted entry still applied")
	}
}

func TestPolicyLongestPrefixWins(t *testing.T) {
	pt := NewPolicyTable()
	pt.Set(ip.MustParsePrefix("36.0.0.0/8"), PolicyTriangle)
	pt.Set(ip.MustParsePrefix("36.8.0.0/16"), PolicyEncapDirect)
	pt.SetHost(ip.MustParseAddr("36.8.0.99"), PolicyDirect)

	cases := map[string]Policy{
		"36.8.0.99":  PolicyDirect,
		"36.8.0.1":   PolicyEncapDirect,
		"36.135.0.1": PolicyTriangle,
		"128.1.1.1":  PolicyTunnel,
	}
	for addr, want := range cases {
		if got := pt.Lookup(ip.MustParseAddr(addr)); got != want {
			t.Errorf("Lookup(%s) = %v, want %v", addr, got, want)
		}
	}
}

func TestPolicyReplaceAndDelete(t *testing.T) {
	pt := NewPolicyTable()
	p := ip.MustParsePrefix("36.8.0.0/16")
	pt.Set(p, PolicyTriangle)
	pt.Set(p, PolicyEncapDirect) // replace
	if pt.Len() != 1 {
		t.Fatalf("Len = %d after replace", pt.Len())
	}
	if pt.Lookup(ip.MustParseAddr("36.8.1.1")) != PolicyEncapDirect {
		t.Fatal("replacement ineffective")
	}
	if !pt.Delete(p) {
		t.Fatal("Delete returned false")
	}
	if pt.Delete(p) {
		t.Fatal("second Delete returned true")
	}
	if pt.Lookup(ip.MustParseAddr("36.8.1.1")) != PolicyTunnel {
		t.Fatal("entry survived Delete")
	}
}

func TestPolicyString(t *testing.T) {
	pt := NewPolicyTable()
	pt.SetHost(ip.MustParseAddr("1.2.3.4"), PolicyTriangle)
	s := pt.String()
	if !strings.Contains(s, "1.2.3.4/32 -> triangle") || !strings.Contains(s, "default -> tunnel") {
		t.Fatalf("String = %q", s)
	}
	for p, want := range map[Policy]string{
		PolicyTunnel: "tunnel", PolicyTriangle: "triangle",
		PolicyEncapDirect: "encap-direct", PolicyDirect: "direct", Policy(9): "policy(9)",
	} {
		if p.String() != want {
			t.Errorf("%d -> %q", p, p.String())
		}
	}
}

// Property: for any set of prefixes covering an address, Lookup returns the
// policy of the longest one.
func TestPropertyPolicyLPM(t *testing.T) {
	f := func(addr ip.Addr, lengths []uint8) bool {
		pt := NewPolicyTable()
		longest := -1
		for _, l := range lengths {
			bits := int(l % 33)
			pt.Set(ip.Prefix{Addr: addr, Bits: bits}, Policy(bits%3+1))
			if bits > longest {
				longest = bits
			}
		}
		if longest < 0 {
			return pt.Lookup(addr) == PolicyTunnel
		}
		return pt.Lookup(addr) == Policy(longest%3+1)
	}
	if err := quick.Check(f, quickConfig(150)); err != nil {
		t.Fatal(err)
	}
}

// TestPolicySetMatchesStableSort: Set places a new prefix by binary search;
// the reference appends it and stable-sorts the table by prefix length, as
// Set did. Over seeded scripts of sets and deletes both hold the same
// entries in the same order after every step.
func TestPolicySetMatchesStableSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pt := NewPolicyTable()
		var ref []policyEntry
		for step := 0; step < 300; step++ {
			prefix := ip.Prefix{Addr: ip.Addr{36, byte(rng.Intn(3)), byte(rng.Intn(3)), 0}, Bits: 8 * (1 + rng.Intn(3))}.Normalize()
			at := -1
			for i := range ref {
				if ref[i].prefix == prefix {
					at = i
				}
			}
			if rng.Intn(4) == 0 {
				pt.Delete(prefix)
				if at >= 0 {
					ref = append(ref[:at], ref[at+1:]...)
				}
			} else {
				p := Policy(rng.Intn(3) + 1)
				pt.Set(prefix, p)
				if at >= 0 {
					ref[at].policy = p
				} else {
					ref = append(ref, policyEntry{prefix, p})
					sort.SliceStable(ref, func(i, j int) bool { return ref[i].prefix.Bits > ref[j].prefix.Bits })
				}
			}
			if len(pt.entries) != len(ref) {
				t.Fatalf("seed %d step %d: %d entries, reference has %d", seed, step, len(pt.entries), len(ref))
			}
			for i := range ref {
				if pt.entries[i] != ref[i] {
					t.Fatalf("seed %d step %d: entry %d is %v, the stable sort has %v", seed, step, i, pt.entries[i], ref[i])
				}
			}
		}
	}
}
