// Package dns implements a compact DNS: A-record queries and responses
// over simulated UDP port 53, a zone-serving server with dynamic updates,
// and a retrying client resolver.
//
// The paper's release notes (Section 8) mention "an extended version of
// DNS on Linux" alongside the mobile-IP code. In MosquitoNet the home
// address is permanent, so names stay valid while hosts roam — this
// package exists to demonstrate exactly that property end to end: a
// correspondent resolves a mobile host's name once and the answer remains
// correct through every move. The dynamic-update operation is the
// "extended" part, letting a home agent or administrator bind names
// programmatically.
package dns

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Port is the DNS UDP port.
const Port = 53

// Op codes.
const (
	OpQuery    = 0
	OpResponse = 1
	OpUpdate   = 2
	OpUpdateOK = 3
)

// Response codes.
const (
	RcodeOK       = 0
	RcodeNXDomain = 3
	RcodeRefused  = 5
)

// MaxNameLen bounds encoded names.
const MaxNameLen = 255

// Message is a DNS message: a query or update carries Name (and Addr for
// updates); a response echoes Name and carries Rcode and Addr.
type Message struct {
	ID    uint16
	Op    uint8
	Rcode uint8
	Name  string
	Addr  [4]byte
}

// Wire format errors.
var (
	ErrShortMessage = errors.New("dns: truncated message")
	ErrBadName      = errors.New("dns: invalid name")
)

// NormalizeName lowercases and strips a trailing dot.
func NormalizeName(name string) string {
	return strings.TrimSuffix(strings.ToLower(name), ".")
}

// ValidName reports whether a name can be encoded: non-empty dot-separated
// labels of 1-63 bytes, total under MaxNameLen.
func ValidName(name string) bool {
	name = NormalizeName(name)
	if name == "" || len(name) > MaxNameLen-2 {
		return false
	}
	for _, label := range strings.Split(name, ".") {
		if len(label) == 0 || len(label) > 63 {
			return false
		}
	}
	return true
}

// Marshal serializes the message: header, length-prefixed labels, a zero
// terminator, and the address.
func (m *Message) Marshal() ([]byte, error) {
	// ValidName normalizes too: validating the normalized name would check
	// "a.." as "a" and then encode an empty label, the terminator.
	if !ValidName(m.Name) {
		return nil, ErrBadName
	}
	name := NormalizeName(m.Name)
	b := make([]byte, 0, 10+len(name)+2)
	var hdr [4]byte
	binary.BigEndian.PutUint16(hdr[0:], m.ID)
	hdr[2] = m.Op
	hdr[3] = m.Rcode
	b = append(b, hdr[:]...)
	for _, label := range strings.Split(name, ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	b = append(b, 0)
	b = append(b, m.Addr[:]...)
	return b, nil
}

// Unmarshal parses a message.
func Unmarshal(b []byte) (*Message, error) {
	if len(b) < 5 {
		return nil, ErrShortMessage
	}
	m := &Message{
		ID:    binary.BigEndian.Uint16(b[0:]),
		Op:    b[2],
		Rcode: b[3],
	}
	i := 4
	var labels []string
	for {
		if i >= len(b) {
			return nil, ErrShortMessage
		}
		n := int(b[i])
		i++
		if n == 0 {
			break
		}
		if n > 63 || i+n > len(b) {
			return nil, ErrBadName
		}
		labels = append(labels, string(b[i:i+n]))
		i += n
	}
	if len(labels) == 0 {
		return nil, ErrBadName
	}
	m.Name = strings.Join(labels, ".")
	if len(m.Name) > MaxNameLen {
		return nil, ErrBadName
	}
	if i+4 > len(b) {
		return nil, ErrShortMessage
	}
	copy(m.Addr[:], b[i:i+4])
	return m, nil
}

func (m *Message) String() string {
	return fmt.Sprintf("dns id=%d op=%d rcode=%d %s %d.%d.%d.%d",
		m.ID, m.Op, m.Rcode, m.Name, m.Addr[0], m.Addr[1], m.Addr[2], m.Addr[3])
}
