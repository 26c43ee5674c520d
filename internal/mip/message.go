// Package mip implements the MosquitoNet mobile-IP protocol — the paper's
// primary contribution.
//
// The three entities are the MobileHost, the HomeAgent, and (unmodified)
// correspondent hosts. Only the first two carry mobility code. A mobile
// host away from home acquires a temporary care-of address (by DHCP or
// static assignment), registers it with its home agent over UDP, and then:
//
//   - receives: the home agent intercepts packets for the home address by
//     proxy ARP, encapsulates them (IP-in-IP) and tunnels them to the
//     care-of address, where the mobile host's own VIF/IPIP module — its
//     collocated, simplified foreign agent — decapsulates them;
//   - sends: each outgoing packet without a bound source is classified by
//     the Mobile Policy Table: reverse-tunneled through the home agent
//     (the basic protocol), sent directly with the home address as source
//     (the triangle-route optimization), encapsulated directly to a smart
//     correspondent, or sent bare in the mobile host's local role.
//
// The registration messages follow the IETF draft's (RFC 2002) layout.
// There is no authentication, matching the paper ("We do not yet implement
// any special security measures in our system").
package mip

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"mosquitonet/internal/ip"
)

// Port is the registration protocol's UDP port (RFC 2002).
const Port = 434

// Protocol timers. The paper's hosts and agents run fixed values, and so
// do ours: no caller sets them.
const (
	// regRetryInterval is how long a mobile host waits for a reply before
	// sending its registration request again.
	regRetryInterval = time.Second
	// regMaxTries is how many transmissions an attempt makes before it
	// times out.
	regMaxTries = 5
	// maxLifetime is the longest registration lifetime a home agent grants
	// and a foreign agent relays or advertises.
	maxLifetime = 5 * time.Minute
	// advertInterval is the period of a foreign agent's advertisements.
	advertInterval = time.Second
)

// Message types.
const (
	TypeRegRequest  = 1
	TypeRegReply    = 3
	TypeAgentAdvert = 16 // foreign-agent extension
	TypePFANotify   = 17 // previous-foreign-agent notification extension
)

// Reply codes (RFC 2002 flavored).
const (
	CodeAccepted           = 0
	CodeDeniedUnspecified  = 64
	CodeDeniedProhibited   = 65
	CodeDeniedNoResources  = 66
	CodeDeniedBadHomeAddr  = 67
	CodeDeniedLifetimeLong = 69
	CodeDeniedBadRequest   = 70
	// CodeDeniedBadID rejects stale or replayed identifications (RFC 2002
	// uses 133 for identification mismatch).
	CodeDeniedBadID = 133
)

// CodeString names a reply code for traces.
func CodeString(c uint8) string {
	switch c {
	case CodeAccepted:
		return "accepted"
	case CodeDeniedUnspecified:
		return "denied"
	case CodeDeniedProhibited:
		return "denied-prohibited"
	case CodeDeniedNoResources:
		return "denied-no-resources"
	case CodeDeniedBadHomeAddr:
		return "denied-bad-home-address"
	case CodeDeniedLifetimeLong:
		return "denied-lifetime-too-long"
	case CodeDeniedBadRequest:
		return "denied-bad-request"
	case CodeDeniedBadID:
		return "denied-identification-mismatch"
	default:
		return fmt.Sprintf("code(%d)", c)
	}
}

// Request flags.
const (
	// FlagSimultaneous ('S') asks the home agent to add this care-of
	// address alongside existing bindings instead of replacing them;
	// packets are then duplicated to every binding — the smooth-handoff
	// technique for overlapping coverage.
	FlagSimultaneous = 1 << 0
)

// RegRequest is a registration request: "my home address HomeAddr, served
// by HomeAgent, is currently reachable at CareOf for Lifetime". A zero
// Lifetime is a deregistration (the mobile host has returned home).
type RegRequest struct {
	Flags     uint8
	Lifetime  uint16 // seconds; 0 = deregister
	HomeAddr  ip.Addr
	HomeAgent ip.Addr
	CareOf    ip.Addr
	ID        uint64 // matches replies to requests; monotonic per mobile host
}

// Simultaneous reports whether the S flag is set.
func (r *RegRequest) Simultaneous() bool { return r.Flags&FlagSimultaneous != 0 }

// RegRequestLen is the request wire length.
const RegRequestLen = 24

// Marshal serializes the request.
func (r *RegRequest) Marshal() []byte {
	b := make([]byte, RegRequestLen)
	b[0] = TypeRegRequest
	b[1] = r.Flags
	binary.BigEndian.PutUint16(b[2:], r.Lifetime)
	copy(b[4:8], r.HomeAddr[:])
	copy(b[8:12], r.HomeAgent[:])
	copy(b[12:16], r.CareOf[:])
	binary.BigEndian.PutUint64(b[16:], r.ID)
	return b
}

// IsDeregistration reports whether the request clears the binding.
func (r *RegRequest) IsDeregistration() bool { return r.Lifetime == 0 }

// RegReply is the home agent's answer.
type RegReply struct {
	Code      uint8
	Lifetime  uint16 // granted lifetime (may be shorter than requested)
	HomeAddr  ip.Addr
	HomeAgent ip.Addr
	ID        uint64 // echoed from the request
}

// RegReplyLen is the reply wire length.
const RegReplyLen = 20

// Marshal serializes the reply.
func (r *RegReply) Marshal() []byte {
	b := make([]byte, RegReplyLen)
	b[0] = TypeRegReply
	b[1] = r.Code
	binary.BigEndian.PutUint16(b[2:], r.Lifetime)
	copy(b[4:8], r.HomeAddr[:])
	copy(b[8:12], r.HomeAgent[:])
	binary.BigEndian.PutUint64(b[12:], r.ID)
	return b
}

// Accepted reports whether the registration was granted.
func (r *RegReply) Accepted() bool { return r.Code == CodeAccepted }

// AgentAdvert is a foreign agent's periodic advertisement (extension).
type AgentAdvert struct {
	Agent    ip.Addr // the foreign agent's address, usable as care-of
	Lifetime uint16  // maximum registration lifetime it relays
	Seq      uint16
}

// AgentAdvertLen is the advertisement wire length.
const AgentAdvertLen = 12

// Marshal serializes the advertisement.
func (a *AgentAdvert) Marshal() []byte {
	b := make([]byte, AgentAdvertLen)
	b[0] = TypeAgentAdvert
	binary.BigEndian.PutUint16(b[2:], a.Lifetime)
	copy(b[4:8], a.Agent[:])
	binary.BigEndian.PutUint16(b[8:], a.Seq)
	return b
}

// PFANotify tells a previous foreign agent where the mobile host went, so
// it can forward straggler packets instead of dropping them (the paper's
// Section 5.1 packet-loss discussion).
type PFANotify struct {
	HomeAddr  ip.Addr
	NewCareOf ip.Addr
	Lifetime  uint16 // seconds to keep forwarding
}

// PFANotifyLen is the notification wire length.
const PFANotifyLen = 12

// Marshal serializes the notification.
func (p *PFANotify) Marshal() []byte {
	b := make([]byte, PFANotifyLen)
	b[0] = TypePFANotify
	binary.BigEndian.PutUint16(b[2:], p.Lifetime)
	copy(b[4:8], p.HomeAddr[:])
	copy(b[8:12], p.NewCareOf[:])
	return b
}

// Parse errors.
var (
	ErrShortMessage = errors.New("mip: truncated message")
	ErrBadType      = errors.New("mip: unexpected message type")
)

// MessageType peeks at a registration-protocol message's type byte.
func MessageType(b []byte) (uint8, error) {
	if len(b) < 1 {
		return 0, ErrShortMessage
	}
	return b[0], nil
}

// UnmarshalRegRequest parses a registration request into r, which the
// caller owns (the agents decode every request into one they keep). On
// error r is untouched.
func UnmarshalRegRequest(r *RegRequest, b []byte) error {
	if len(b) >= 1 && b[0] != TypeRegRequest {
		return ErrBadType
	}
	if len(b) < RegRequestLen {
		return ErrShortMessage
	}
	*r = RegRequest{
		Flags:    b[1],
		Lifetime: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint64(b[16:]),
	}
	copy(r.HomeAddr[:], b[4:8])
	copy(r.HomeAgent[:], b[8:12])
	copy(r.CareOf[:], b[12:16])
	return nil
}

// UnmarshalRegReply parses a registration reply into the caller's r.
func UnmarshalRegReply(r *RegReply, b []byte) error {
	if len(b) >= 1 && b[0] != TypeRegReply {
		return ErrBadType
	}
	if len(b) < RegReplyLen {
		return ErrShortMessage
	}
	*r = RegReply{
		Code:     b[1],
		Lifetime: binary.BigEndian.Uint16(b[2:]),
		ID:       binary.BigEndian.Uint64(b[12:]),
	}
	copy(r.HomeAddr[:], b[4:8])
	copy(r.HomeAgent[:], b[8:12])
	return nil
}

// UnmarshalAgentAdvert parses an agent advertisement.
func UnmarshalAgentAdvert(b []byte) (*AgentAdvert, error) {
	if len(b) >= 1 && b[0] != TypeAgentAdvert {
		return nil, ErrBadType
	}
	if len(b) < AgentAdvertLen {
		return nil, ErrShortMessage
	}
	a := &AgentAdvert{
		Lifetime: binary.BigEndian.Uint16(b[2:]),
		Seq:      binary.BigEndian.Uint16(b[8:]),
	}
	copy(a.Agent[:], b[4:8])
	return a, nil
}

// UnmarshalPFANotify parses a previous-foreign-agent notification.
func UnmarshalPFANotify(b []byte) (*PFANotify, error) {
	if len(b) >= 1 && b[0] != TypePFANotify {
		return nil, ErrBadType
	}
	if len(b) < PFANotifyLen {
		return nil, ErrShortMessage
	}
	p := &PFANotify{Lifetime: binary.BigEndian.Uint16(b[2:])}
	copy(p.HomeAddr[:], b[4:8])
	copy(p.NewCareOf[:], b[8:12])
	return p, nil
}
