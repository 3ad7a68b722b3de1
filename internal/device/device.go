// Package device defines the single packet-I/O boundary everything
// above the wire speaks: the strategy engine, the TCP stacks, the live
// proxy daemon, and the discrete-event simulator all move raw IPv4
// datagrams through a Device. The paper's INTANG prototype sat on
// netfilter-queue; this boundary is the same seam, abstracted so one
// engine body serves both the simulated substrate (a netem.Fabric
// behind a NetemEnd adapter) and live packet carriers
// (the in-memory Pipe, the userspace-stack dialer in device/uis, or a
// future TUN/pcap device).
package device

import (
	"errors"

	"intango/internal/packet"
)

// ErrClosed is returned by Read/Write on a closed device.
var ErrClosed = errors.New("device: closed")

// Device is one end of a packet carrier. WritePacket transmits a
// datagram toward the far side; ReadPacket blocks until a datagram
// arrives or the device is closed. Ownership of a written packet
// transfers to the device: callers must not touch it afterwards
// (pool-aware devices recycle it once the bytes are on the wire).
// Packets returned by ReadPacket belong to the caller.
//
// Devices may additionally implement LineageStamper and Pooled; use
// Stamp and PoolOf instead of asserting by hand.
type Device interface {
	ReadPacket() (*packet.Packet, error)
	WritePacket(pkt *packet.Packet) error
	Close() error
}

// LineageStamper is implemented by devices that can assign wire IDs
// for causal tracing (a netem fabric end does; dumb carriers don't).
type LineageStamper interface {
	// StampLineage assigns pkt its wire ID if it does not have one yet
	// and returns the ID.
	StampLineage(pkt *packet.Packet) uint32
}

// Pooled is implemented by devices backed by a packet.Pool; crafting
// layers attached to such a device draw their packets from it so the
// hot path stays allocation-free.
type Pooled interface {
	// PacketPool returns the device's pool (nil when pooling is off).
	PacketPool() *packet.Pool
}

// Stamp assigns pkt a wire ID through d when d supports lineage
// stamping, and returns the ID (zero otherwise).
func Stamp(d Device, pkt *packet.Packet) uint32 {
	if s, ok := d.(LineageStamper); ok {
		return s.StampLineage(pkt)
	}
	return 0
}

// PoolOf returns d's packet pool when d is pool-backed, else nil (the
// nil-safe packet.Pool fallback then allocates from the heap).
func PoolOf(d Device) *packet.Pool {
	if p, ok := d.(Pooled); ok {
		return p.PacketPool()
	}
	return nil
}
