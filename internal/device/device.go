// Package device defines the packet-I/O boundary between the live
// proxy daemon and its clients: raw IPv4 datagrams cross it through a
// Device — the in-memory Pipe, with the userspace-stack dialer in
// device/uis on the far end, or a future TUN/pcap device. The paper's
// INTANG prototype sat on netfilter-queue; this boundary is the same
// seam. Inside a world, the strategy engine and the TCP stacks are the
// ends of their netem.Fabric and need no device.
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
// Devices may additionally implement Pooled; use PoolOf instead of
// asserting by hand.
type Device interface {
	ReadPacket() (*packet.Packet, error)
	WritePacket(pkt *packet.Packet) error
	Close() error
}

// Pooled is implemented by devices backed by a packet.Pool; crafting
// layers attached to such a device draw their packets from it so the
// hot path stays allocation-free.
type Pooled interface {
	// PacketPool returns the device's pool (nil when pooling is off).
	PacketPool() *packet.Pool
}

// PoolOf returns d's packet pool when d is pool-backed, else nil (the
// nil-safe packet.Pool fallback then allocates from the heap).
func PoolOf(d Device) *packet.Pool {
	if p, ok := d.(Pooled); ok {
		return p.PacketPool()
	}
	return nil
}
