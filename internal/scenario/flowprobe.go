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

// FlowProbe streams one-way sequence-numbered UDP datagrams into a
// stats.FlowTracker: the sender stamps each transmission, the receiver
// each arrival, and the tracker owns the loss/latency/reordering
// accounting. It never reflects traffic, so its latency samples are
// one-way and its loss is direction-attributable.
type FlowProbe struct {
	loop     *sim.Loop
	src      *transport.UDPSocket
	sink     *transport.UDPSocket
	dst      ip.Addr
	port     uint16
	interval time.Duration
	flow     *stats.FlowTracker

	seq    uint64
	paused bool
}

// NewFlowProbe installs the receiver on to (bound to the wildcard address,
// so it keeps collecting across address switches) and prepares the sender
// on from. Call Start to begin transmission.
func NewFlowProbe(loop *sim.Loop, from, to *transport.Stack, dst ip.Addr, port uint16, interval time.Duration) (*FlowProbe, error) {
	p := &FlowProbe{loop: loop, dst: dst, port: port, interval: interval, paused: true,
		flow: stats.NewFlowTracker(fmt.Sprintf("udp:%v:%d", dst, port))}
	sink, err := to.UDP(ip.Unspecified, port, func(d transport.Datagram) {
		if len(d.Payload) < probePayload {
			//lint:allow dropaccounting non-probe datagram ignored; flow accounting lives in the tracker
			return
		}
		p.flow.Received(binary.BigEndian.Uint64(d.Payload), p.loop.Now())
	})
	if err != nil {
		return nil, err
	}
	p.sink = sink
	src, err := from.UDP(ip.Unspecified, 0, nil)
	if err != nil {
		sink.Close()
		return nil, err
	}
	p.src = src
	return p, nil
}

// Start (or resume) transmission.
func (p *FlowProbe) Start() {
	if !p.paused {
		return
	}
	p.paused = false
	p.tick()
}

// Pause suspends transmission; in-flight packets still count on arrival.
func (p *FlowProbe) Pause() { p.paused = true }

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
