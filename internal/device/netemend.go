package device

import (
	"sync"

	"intango/internal/netem"
	"intango/internal/packet"
)

// NetemEnd adapts one end of a simulated netem.Fabric to the Device
// boundary. Writes transmit from the bound end; delivery runs in one of two modes:
//
//   - Handler mode (Sink set): inbound packets are forwarded
//     synchronously to Sink inside the simulation event that carried
//     them — the zero-allocation path the strategy engine and the TCP
//     stacks ride. The packet still belongs to netem (it is recycled
//     when the delivery event returns), exactly as before.
//   - Pull mode (Sink nil): inbound packets are copied off the
//     substrate into a queue and handed out by ReadPacket. The copy is
//     mandatory — netem recycles the in-flight packet the moment the
//     delivery event returns — and makes the returned packet the
//     caller's own.
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
	// Sink, when set, receives every inbound packet synchronously
	// (handler mode). Leave nil to queue packets for ReadPacket.
	Sink netem.Endpoint

	mu     sync.Mutex
	rd     sync.Cond
	queue  []*packet.Packet
	closed bool
}

// Attach registers the end as its side's endpoint on Net, so inbound
// traffic reaches Deliver. Layers that are themselves netem endpoints
// (the engine, the stacks) skip Attach and register directly.
func (d *NetemEnd) Attach() {
	if d.Server {
		d.Net.Server = d
	} else {
		d.Net.Client = d
	}
}

// WritePacket transmits pkt from the bound end. Ownership passes to
// the substrate, which recycles pooled packets at end-of-life.
func (d *NetemEnd) WritePacket(pkt *packet.Packet) error {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return ErrClosed
	}
	d.Transmit(pkt)
	return nil
}

// Transmit is WritePacket without the closed-state check or error
// return — the exact shape of tcpstack's Send hook, so attaching a
// stack to a NetemEnd costs one method value, same as the old direct
// netem binding.
func (d *NetemEnd) Transmit(pkt *packet.Packet) {
	if d.Server {
		d.Net.SendFromServer(pkt)
	} else {
		d.Net.SendFromClient(pkt)
	}
}

// Deliver implements netem.Endpoint.
func (d *NetemEnd) Deliver(pkt *packet.Packet) {
	if d.Sink != nil {
		d.Sink.Deliver(pkt)
		return
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return
	}
	if d.rd.L == nil {
		d.rd.L = &d.mu
	}
	// netem recycles pkt when this event returns; the queue keeps a
	// deep copy the reader will own.
	d.queue = append(d.queue, pkt.Clone())
	d.mu.Unlock()
	d.rd.Signal()
}

// ReadPacket returns the next queued inbound packet, blocking until
// one arrives or the end is closed. In handler mode there is nothing
// to pull and ReadPacket reports the device closed.
func (d *NetemEnd) ReadPacket() (*packet.Packet, error) {
	if d.Sink != nil {
		return nil, ErrClosed
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rd.L == nil {
		d.rd.L = &d.mu
	}
	for len(d.queue) == 0 && !d.closed {
		d.rd.Wait()
	}
	if len(d.queue) == 0 {
		return nil, ErrClosed
	}
	pkt := d.queue[0]
	d.queue = d.queue[1:]
	return pkt, nil
}

// Close marks the end closed: writes fail, blocked readers drain the
// queue and then unblock with ErrClosed. The substrate itself is
// untouched.
func (d *NetemEnd) Close() error {
	d.mu.Lock()
	d.closed = true
	if d.rd.L == nil {
		d.rd.L = &d.mu
	}
	d.mu.Unlock()
	d.rd.Broadcast()
	return nil
}

// StampLineage implements LineageStamper by forwarding to the
// fabric's wire-ID allocator.
func (d *NetemEnd) StampLineage(pkt *packet.Packet) uint32 {
	return d.Net.StampLineage(pkt)
}

// PacketPool implements Pooled with the fabric's pool.
func (d *NetemEnd) PacketPool() *packet.Pool {
	return d.Net.Pool
}
