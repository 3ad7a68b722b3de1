package device

import (
	"intango/internal/netem"
	"intango/internal/packet"
)

// NetemEnd adapts one end of a simulated netem.Fabric to the Device
// boundary on the write side: writes transmit from the bound end, and
// the end stamps lineage and exposes the fabric's pool. Inbound
// traffic never passes through it — the layers that embed one (the
// engine, the TCP stacks) are themselves the fabric's endpoints and
// receive synchronously inside the delivery event — so ReadPacket
// reports the device closed.
//
// A NetemEnd is cheap enough to embed by value: the engine and the
// stacks hold one inline so adapting to the Device boundary costs no
// extra heap objects on the trial hot path.
type NetemEnd struct {
	// Net is the fabric this end writes into.
	Net *netem.Fabric
	// Server selects the server end; the zero value binds the client
	// end.
	Server bool
}

// WritePacket transmits pkt from the bound end. Ownership passes to
// the substrate, which recycles pooled packets at end-of-life.
func (d *NetemEnd) WritePacket(pkt *packet.Packet) error {
	d.Transmit(pkt)
	return nil
}

// Transmit is WritePacket without the error return — the exact shape
// of tcpstack's Send hook, so attaching a stack to a NetemEnd costs one
// method value, same as a direct netem binding.
func (d *NetemEnd) Transmit(pkt *packet.Packet) {
	if d.Server {
		d.Net.SendFromServer(pkt)
	} else {
		d.Net.SendFromClient(pkt)
	}
}

// ReadPacket reports ErrClosed: inbound packets go to the fabric's
// endpoint, not through the end.
func (d *NetemEnd) ReadPacket() (*packet.Packet, error) {
	return nil, ErrClosed
}

// Close is a no-op; the substrate is untouched.
func (d *NetemEnd) Close() error { return nil }

// StampLineage implements LineageStamper by forwarding to the
// fabric's wire-ID allocator.
func (d *NetemEnd) StampLineage(pkt *packet.Packet) uint32 {
	return d.Net.StampLineage(pkt)
}

// PacketPool implements Pooled with the fabric's pool.
func (d *NetemEnd) PacketPool() *packet.Pool {
	return d.Net.Pool
}
