// Package ip implements the IPv4 wire formats used throughout the
// simulator: addresses and prefixes, the IPv4 header with real Internet
// checksums, UDP, ICMP and TCP headers, and IP-in-IP encapsulation
// (protocol 4), which is the tunneling mechanism MosquitoNet's home agents
// and mobile hosts use.
//
// Packets are marshaled to and parsed from real bytes. Nothing in the
// simulator passes structured packets around by reference across a link;
// what a host receives is what was serialized, so header overheads (the
// paper's 20-byte encapsulation cost) and malformed-packet handling are
// honest.
package ip

import (
	"fmt"
	"strconv"
	"strings"
)

// Addr is an IPv4 address.
type Addr [4]byte

// Unspecified is the zero address 0.0.0.0. A socket bound to it has not
// chosen a source address, which in MosquitoNet means "subject to mobile
// IP": the stack will fill in the home address.
var Unspecified = Addr{}

// Broadcast is the limited broadcast address 255.255.255.255.
var Broadcast = Addr{255, 255, 255, 255}

// MustParseAddr parses a dotted-quad address and panics on error. It is for
// constants in tests and topology builders.
func MustParseAddr(s string) Addr {
	a, err := ParseAddr(s)
	if err != nil {
		panic(err)
	}
	return a
}

// ParseAddr parses a dotted-quad IPv4 address such as "36.135.0.10".
func ParseAddr(s string) (Addr, error) {
	var a Addr
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return a, fmt.Errorf("ip: invalid address %q", s)
	}
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 || (len(p) > 1 && p[0] == '0') {
			return a, fmt.Errorf("ip: invalid address %q", s)
		}
		a[i] = byte(v)
	}
	return a, nil
}

// String returns the dotted-quad form. It is reached when text is made —
// exports, span attributes, errors — not per packet.
func (a Addr) String() string {
	var buf [15]byte
	b := buf[:0]
	for i, octet := range a {
		if i > 0 {
			b = append(b, '.')
		}
		b = strconv.AppendUint(b, uint64(octet), 10)
	}
	return string(b)
}

// IsUnspecified reports whether a is 0.0.0.0.
func (a Addr) IsUnspecified() bool { return a == Unspecified }

// IsBroadcast reports whether a is the limited broadcast address.
func (a Addr) IsBroadcast() bool { return a == Broadcast }

// IsMulticast reports whether a is in 224.0.0.0/4.
func (a Addr) IsMulticast() bool { return a[0] >= 224 && a[0] <= 239 }

// IsLoopback reports whether a is in 127.0.0.0/8.
func (a Addr) IsLoopback() bool { return a[0] == 127 }

// Uint32 returns the address as a big-endian 32-bit integer.
func (a Addr) Uint32() uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// AddrFromUint32 converts a big-endian 32-bit integer to an address.
func AddrFromUint32(v uint32) Addr {
	return Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// Less orders addresses numerically; it exists so address sets can be
// sorted deterministically in reports.
func (a Addr) Less(b Addr) bool { return a.Uint32() < b.Uint32() }

// Prefix is an IPv4 network prefix in CIDR form.
type Prefix struct {
	Addr Addr // network address; host bits are zeroed by Normalize
	Bits int  // prefix length, 0..32
}

// MustParsePrefix parses CIDR notation and panics on error.
func MustParsePrefix(s string) Prefix {
	p, err := ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePrefix parses CIDR notation such as "36.135.0.0/16". The address
// part is normalized: host bits are cleared.
func ParsePrefix(s string) (Prefix, error) {
	slash := strings.IndexByte(s, '/')
	if slash < 0 {
		return Prefix{}, fmt.Errorf("ip: invalid prefix %q: missing '/'", s)
	}
	a, err := ParseAddr(s[:slash])
	if err != nil {
		return Prefix{}, err
	}
	bits, err := strconv.Atoi(s[slash+1:])
	if err != nil || bits < 0 || bits > 32 {
		return Prefix{}, fmt.Errorf("ip: invalid prefix length in %q", s)
	}
	return Prefix{Addr: a, Bits: bits}.Normalize(), nil
}

// Mask returns the netmask as a 32-bit integer.
func (p Prefix) Mask() uint32 {
	if p.Bits <= 0 {
		return 0
	}
	return ^uint32(0) << (32 - uint(p.Bits))
}

// Normalize returns p with host bits cleared from the address.
func (p Prefix) Normalize() Prefix {
	p.Addr = AddrFromUint32(p.Addr.Uint32() & p.Mask())
	return p
}

// Contains reports whether a falls inside the prefix.
func (p Prefix) Contains(a Addr) bool {
	return a.Uint32()&p.Mask() == p.Addr.Uint32()&p.Mask()
}

// BroadcastAddr returns the directed broadcast address of the prefix.
func (p Prefix) BroadcastAddr() Addr {
	return AddrFromUint32(p.Addr.Uint32()&p.Mask() | ^p.Mask())
}

// NetworkAddr returns the network address (host bits zero).
func (p Prefix) NetworkAddr() Addr { return AddrFromUint32(p.Addr.Uint32() & p.Mask()) }

// HostCount returns the number of assignable host addresses (excluding
// network and broadcast addresses for prefixes shorter than /31).
func (p Prefix) HostCount() int {
	switch {
	case p.Bits >= 32:
		return 1
	case p.Bits == 31:
		return 2
	default:
		return (1 << (32 - uint(p.Bits))) - 2
	}
}

// Nth returns the nth assignable host address within the prefix, counting
// from 1 (the address just above the network address).
func (p Prefix) Nth(n int) (Addr, error) {
	if n < 1 || n > p.HostCount() {
		return Addr{}, fmt.Errorf("ip: host index %d out of range for %v", n, p)
	}
	base := p.Addr.Uint32() & p.Mask()
	if p.Bits >= 31 {
		return AddrFromUint32(base + uint32(n-1)), nil
	}
	return AddrFromUint32(base + uint32(n)), nil
}

// String returns CIDR notation.
func (p Prefix) String() string { return fmt.Sprintf("%s/%d", p.Addr, p.Bits) }
