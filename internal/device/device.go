// Package device defines the packet-I/O boundary between the live
// proxy daemon and its clients: raw IPv4 datagrams cross it through a
// Device — the in-memory Pipe, with the userspace-stack dialer in
// device/uis on the far end, or a future TUN/pcap device. The paper's
// INTANG prototype sat on netfilter-queue; this boundary is the same
// seam. Inside a world, the strategy engine and the TCP stacks are the
// ends of their netem.Fabric and need no device.
//
// A device also carries the clock of the world it belongs to: a stack
// attached to it schedules its timers on that clock's simulator and
// takes that clock's lock, so a live daemon and its clients run on one
// clock under one lock.
package device

import (
	"errors"

	"intango/internal/netem"
	"intango/internal/packet"
)

// ErrClosed is returned by Read/Write on a closed device.
var ErrClosed = errors.New("device: closed")

// Device is one end of a packet carrier. WritePacket transmits a
// datagram toward the far side, copying its bytes before it returns,
// so the packet stays the caller's; ReadPacket blocks until a datagram
// arrives or the device is closed, and the packets it returns belong to
// the caller. Clock returns the world clock the device's users share.
type Device interface {
	ReadPacket() (*packet.Packet, error)
	WritePacket(pkt *packet.Packet) error
	Close() error
	Clock() *netem.Clock
}
