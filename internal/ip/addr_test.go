package ip

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// quickConfig is a testing/quick configuration whose generator has a fixed
// seed, so a failing property reproduces on the next run (maxCount 0 keeps
// quick's default of 100).
func quickConfig(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: rand.New(rand.NewSource(1996))}
}

func TestParseAddr(t *testing.T) {
	cases := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"0.0.0.0", Addr{0, 0, 0, 0}, true},
		{"36.135.0.10", Addr{36, 135, 0, 10}, true},
		{"255.255.255.255", Addr{255, 255, 255, 255}, true},
		{"1.2.3", Addr{}, false},
		{"1.2.3.4.5", Addr{}, false},
		{"256.1.1.1", Addr{}, false},
		{"-1.1.1.1", Addr{}, false},
		{"a.b.c.d", Addr{}, false},
		{"01.2.3.4", Addr{}, false}, // leading zero rejected
		{"", Addr{}, false},
	}
	for _, c := range cases {
		got, err := ParseAddr(c.in)
		if (err == nil) != c.ok {
			t.Errorf("ParseAddr(%q) err=%v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	f := func(a Addr) bool {
		got, err := ParseAddr(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Fatal(err)
	}
}

func TestAddrUint32RoundTrip(t *testing.T) {
	f := func(v uint32) bool { return AddrFromUint32(v).Uint32() == v }
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Fatal(err)
	}
}

func TestAddrPredicates(t *testing.T) {
	if !Unspecified.IsUnspecified() || MustParseAddr("1.1.1.1").IsUnspecified() {
		t.Error("IsUnspecified wrong")
	}
	if !Broadcast.IsBroadcast() || MustParseAddr("36.135.255.255").IsBroadcast() {
		t.Error("IsBroadcast wrong")
	}
	if !MustParseAddr("224.0.0.1").IsMulticast() || MustParseAddr("223.1.1.1").IsMulticast() || MustParseAddr("240.0.0.1").IsMulticast() {
		t.Error("IsMulticast wrong")
	}
	if !MustParseAddr("127.0.0.1").IsLoopback() || MustParseAddr("128.0.0.1").IsLoopback() {
		t.Error("IsLoopback wrong")
	}
	if !MustParseAddr("1.0.0.1").Less(MustParseAddr("1.0.0.2")) {
		t.Error("Less wrong")
	}
}

func TestMustParseAddrPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParseAddr did not panic on bad input")
		}
	}()
	MustParseAddr("not an address")
}

func TestParsePrefix(t *testing.T) {
	p, err := ParsePrefix("36.135.0.10/24")
	if err != nil {
		t.Fatal(err)
	}
	if p.Addr != MustParseAddr("36.135.0.0") || p.Bits != 24 {
		t.Fatalf("prefix not normalized: %v", p)
	}
	if p.String() != "36.135.0.0/24" {
		t.Fatalf("String = %q", p.String())
	}
	for _, bad := range []string{"36.135.0.0", "36.135.0.0/33", "36.135.0.0/-1", "x/24", "36.135.0.0/x"} {
		if _, err := ParsePrefix(bad); err == nil {
			t.Errorf("ParsePrefix(%q) accepted", bad)
		}
	}
}

func TestPrefixContains(t *testing.T) {
	p := MustParsePrefix("36.135.0.0/16")
	for _, in := range []string{"36.135.0.1", "36.135.255.254", "36.135.128.0"} {
		if !p.Contains(MustParseAddr(in)) {
			t.Errorf("%v should contain %s", p, in)
		}
	}
	for _, out := range []string{"36.134.0.1", "37.135.0.1", "0.0.0.0"} {
		if p.Contains(MustParseAddr(out)) {
			t.Errorf("%v should not contain %s", p, out)
		}
	}
	all := MustParsePrefix("0.0.0.0/0")
	if !all.Contains(MustParseAddr("200.1.2.3")) {
		t.Error("/0 should contain everything")
	}
	host := MustParsePrefix("10.0.0.5/32")
	if !host.Contains(MustParseAddr("10.0.0.5")) || host.Contains(MustParseAddr("10.0.0.6")) {
		t.Error("/32 containment wrong")
	}
}

func TestPrefixBroadcastNetwork(t *testing.T) {
	p := MustParsePrefix("36.135.4.0/24")
	if p.BroadcastAddr() != MustParseAddr("36.135.4.255") {
		t.Errorf("broadcast = %v", p.BroadcastAddr())
	}
	if p.NetworkAddr() != MustParseAddr("36.135.4.0") {
		t.Errorf("network = %v", p.NetworkAddr())
	}
}

func TestPrefixHostCount(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{
		{"10.0.0.0/24", 254},
		{"10.0.0.0/30", 2},
		{"10.0.0.0/31", 2},
		{"10.0.0.0/32", 1},
		{"10.0.0.0/16", 65534},
	}
	for _, c := range cases {
		if got := MustParsePrefix(c.in).HostCount(); got != c.want {
			t.Errorf("HostCount(%s) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestPrefixNth(t *testing.T) {
	p := MustParsePrefix("36.135.4.0/24")
	a, err := p.Nth(1)
	if err != nil || a != MustParseAddr("36.135.4.1") {
		t.Fatalf("Nth(1) = %v, %v", a, err)
	}
	a, err = p.Nth(254)
	if err != nil || a != MustParseAddr("36.135.4.254") {
		t.Fatalf("Nth(254) = %v, %v", a, err)
	}
	if _, err := p.Nth(0); err == nil {
		t.Error("Nth(0) accepted")
	}
	if _, err := p.Nth(255); err == nil {
		t.Error("Nth(255) accepted (would be broadcast)")
	}
}

// Property: every Nth address is contained in the prefix and is neither the
// network nor the broadcast address.
func TestPropertyNthInPrefix(t *testing.T) {
	p := MustParsePrefix("10.1.2.0/26")
	for n := 1; n <= p.HostCount(); n++ {
		a, err := p.Nth(n)
		if err != nil {
			t.Fatalf("Nth(%d): %v", n, err)
		}
		if !p.Contains(a) {
			t.Fatalf("Nth(%d)=%v not in %v", n, a, p)
		}
		if a == p.NetworkAddr() || a == p.BroadcastAddr() {
			t.Fatalf("Nth(%d)=%v is network or broadcast", n, a)
		}
	}
}

// Property: Contains is equivalent to masked-prefix equality for arbitrary
// addresses and prefix lengths.
func TestPropertyContainsMask(t *testing.T) {
	f := func(a, b Addr, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		p := Prefix{Addr: a, Bits: bits}.Normalize()
		want := a.Uint32()&p.Mask() == b.Uint32()&p.Mask()
		return p.Contains(b) == want
	}
	if err := quick.Check(f, quickConfig(0)); err != nil {
		t.Fatal(err)
	}
}
