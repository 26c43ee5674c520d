package scenario

import (
	"encoding/binary"
	"fmt"
	"time"

	"mosquitonet/internal/ip"
	"mosquitonet/internal/sim"
	"mosquitonet/internal/stats"
	"mosquitonet/internal/transport"
)

// probePayload is a probe datagram's size: the 8-byte sequence number.
const probePayload = 8

// FlowProbe streams sequence-numbered UDP datagrams at a fixed interval into
// a stats.FlowTracker, which owns the loss/latency/reordering accounting.
// It comes in two forms. The one-way form (NewFlowProbe) records each
// arrival at the receiver, so its latency samples are one-way and its loss
// is direction-attributable. The echo form (NewEchoProbe) is the paper's
// measurement workload: the far host runs the UDP echo service and the
// sender records each echo, so a packet counts as received once its echo
// is back.
type FlowProbe struct {
	loop     *sim.Loop
	src      *transport.UDPSocket
	sink     *transport.UDPSocket // the one-way receiver, or the echo service
	dst      ip.Addr
	port     uint16
	interval time.Duration
	flow     *stats.FlowTracker

	seq     uint64
	paused  bool
	stopped bool
}

// NewFlowProbe installs the receiver on to (bound to the wildcard address,
// so it keeps collecting across address switches) and prepares the sender
// on from. Call Start to begin transmission.
func NewFlowProbe(loop *sim.Loop, from, to *transport.Stack, dst ip.Addr, port uint16, interval time.Duration) (*FlowProbe, error) {
	p := newFlowProbe(loop, dst, port, interval)
	sink, err := to.UDP(ip.Unspecified, port, p.record)
	if err != nil {
		return nil, err
	}
	return p.open(from, sink, nil)
}

// NewEchoProbe installs the echo service on to (bound to the wildcard
// address, so it answers via mobile IP on a mobile host) and prepares the
// sender on from, whose own socket records the echoes. Call Start to begin
// transmission.
func NewEchoProbe(loop *sim.Loop, from, to *transport.Stack, dst ip.Addr, port uint16, interval time.Duration) (*FlowProbe, error) {
	p := newFlowProbe(loop, dst, port, interval)
	echo, err := to.Echo(ip.Unspecified, port)
	if err != nil {
		return nil, err
	}
	return p.open(from, echo, p.record)
}

func newFlowProbe(loop *sim.Loop, dst ip.Addr, port uint16, interval time.Duration) *FlowProbe {
	return &FlowProbe{loop: loop, dst: dst, port: port, interval: interval, paused: true,
		flow: stats.NewFlowTracker(fmt.Sprintf("udp:%v:%d", dst, port))}
}

// open binds the sender, an ephemeral port on from; echoed, if not nil,
// receives what comes back to it.
func (p *FlowProbe) open(from *transport.Stack, sink *transport.UDPSocket, echoed transport.DatagramHandler) (*FlowProbe, error) {
	src, err := from.UDP(ip.Unspecified, 0, echoed)
	if err != nil {
		sink.Close()
		return nil, err
	}
	p.src, p.sink = src, sink
	return p, nil
}

// record counts one probe datagram's arrival.
func (p *FlowProbe) record(d transport.Datagram) {
	if len(d.Payload) < probePayload {
		//lint:allow dropaccounting non-probe datagram ignored; flow accounting lives in the tracker
		return
	}
	p.flow.Received(binary.BigEndian.Uint64(d.Payload), p.loop.Now())
}

// Start (or resume) transmission; after Stop it does nothing.
func (p *FlowProbe) Start() {
	if !p.paused || p.stopped {
		return
	}
	p.paused = false
	p.tick()
}

// Pause suspends transmission; in-flight packets still count on arrival.
func (p *FlowProbe) Pause() { p.paused = true }

// Stop ends the probe for good and closes its sockets.
func (p *FlowProbe) Stop() {
	p.stopped, p.paused = true, true
	p.src.Close()
	p.sink.Close()
}

// Flow returns the tracker accumulating this probe's accounting.
func (p *FlowProbe) Flow() *stats.FlowTracker { return p.flow }

func (p *FlowProbe) tick() {
	if p.paused {
		return
	}
	p.seq++
	var payload [probePayload]byte
	binary.BigEndian.PutUint64(payload[:], p.seq)
	p.flow.Sent(p.seq, p.loop.Now())
	p.src.SendTo(p.dst, p.port, payload[:])
	p.loop.Schedule(p.interval, p.tick)
}
