package transport

import (
	"mosquitonet/internal/ip"
	"mosquitonet/internal/stack"
)

// PoisonLentDatagrams makes s overwrite the payload of every UDP packet as
// soon as its handler has returned — what the packet pool does to it
// eventually, done at once so that a handler which kept the bytes it was
// lent reads garbage every time, not only when the buffer happens to be
// reused.
func (s *Stack) PoisonLentDatagrams() {
	s.host.RegisterHandler(ip.ProtoUDP, func(ifc *stack.Iface, pkt *ip.Packet) {
		s.udpInput(ifc, pkt)
		for i := range pkt.Payload {
			pkt.Payload[i] = 0xDB
		}
	})
}
