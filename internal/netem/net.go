package netem

import (
	"fmt"
	"time"

	"intango/internal/obs"
	"intango/internal/packet"
)

// Direction is the direction a packet travels between the endpoints.
type Direction int

const (
	// ToServer is client→server travel.
	ToServer Direction = iota
	// ToClient is server→client travel.
	ToClient
)

// String names the direction for traces.
func (d Direction) String() string {
	if d == ToServer {
		return "→srv"
	}
	return "→cli"
}

// Flip returns the opposite direction.
func (d Direction) Flip() Direction { return 1 - d }

// Verdict is a processor's decision about a packet.
type Verdict int

const (
	// Pass forwards the (possibly mutated) packet.
	Pass Verdict = iota
	// Drop silently discards the packet.
	Drop
)

// Processor is anything attached at a node that sees packets in both
// directions: middleboxes, and the GFW wiretap. An on-path wiretap must
// return Pass and must not mutate the packet (clone first); in-path
// middleboxes may mutate or Drop.
type Processor interface {
	// Name labels the processor in traces.
	Name() string
	// Process handles pkt traveling in dir at this node.
	Process(ctx *Context, pkt *packet.Packet, dir Direction) Verdict
}

// Endpoint receives packets at either end of a fabric.
type Endpoint interface {
	Deliver(pkt *packet.Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(pkt *packet.Packet)

// Deliver implements Endpoint.
func (f EndpointFunc) Deliver(pkt *packet.Packet) { f(pkt) }

// TraceEvent is one observable packet event.
type TraceEvent struct {
	Time  time.Duration
	Where string // node label
	Event string // "send", "fwd", "deliver", "drop-ttl", "drop-loss", "drop-proc", "inject"
	Dir   Direction
	Pkt   *packet.Packet
}

// String renders a trace line.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%8.3fms %-12s %-9s %s %s",
		float64(e.Time)/float64(time.Millisecond), e.Where, e.Event, e.Dir, e.Pkt)
}

// Context gives processors access to simulation services and the
// ability to inject packets from their own node.
type Context struct {
	Sim *Simulator
	Net *Fabric
	// Node is the id of the processor's node.
	Node int
}

// Inject sends pkt from this context's node in dir after delay. The GFW
// uses it to fire forged RSTs; reassembling middleboxes use it to emit
// rebuilt datagrams.
func (c *Context) Inject(dir Direction, pkt *packet.Packet, delay time.Duration) {
	c.Net.emitFrom(c.Node, dir, pkt, delay, true)
}

// Obs returns the fabric's observability bundle (nil when disabled),
// so processors can count and trace their own decisions.
func (c *Context) Obs() *obs.Obs { return c.Net.Obs }

// Pool returns the fabric's packet pool (nil when pooling is disabled;
// all pool constructors fall back to the heap on nil).
func (c *Context) Pool() *packet.Pool { return c.Net.Pool }

// Packet event indices for the hot-path counters.
const (
	evSend = iota
	evFwd
	evDeliver
	evInject
	evDropLoss
	evDropTTL
	evDropProc
	evDropIPck
	evDropIPOpt
	evDropMTU
	evDropQueue
	evDropRED
	numEvents
)

// eventLabels are the TraceEvent labels, indexed by event.
var eventLabels = [numEvents]string{
	"send", "fwd", "deliver", "inject", "drop-loss",
	"drop-ttl", "drop-proc", "drop-ipck", "drop-ipopt", "drop-mtu",
	"drop-queue", "drop-red",
}

// eventCounters are the registry counter names, indexed by event.
var eventCounters = [numEvents]string{
	"netem.send", "netem.fwd", "netem.deliver", "netem.inject", "netem.drop-loss",
	"netem.drop-ttl", "netem.drop-proc", "netem.drop-ipck", "netem.drop-ipopt", "netem.drop-mtu",
	"netem.drop-queue", "netem.drop-red",
}

// pktKind buckets a packet for the per-type drop counters.
func pktKind(pkt *packet.Packet) string {
	switch {
	case pkt.IP.IsFragment():
		return "ipfrag"
	case pkt.TCP != nil:
		return "tcp"
	case pkt.UDP != nil:
		return "udp"
	case pkt.ICMP != nil:
		return "icmp"
	default:
		return "other"
	}
}

// wireSize computes the datagram's on-the-wire size from its fields.
func wireSize(pkt *packet.Packet) int {
	n := pkt.IP.HeaderLen() + len(pkt.Payload)
	switch {
	case pkt.TCP != nil:
		n += pkt.TCP.HeaderLen()
	case pkt.UDP != nil:
		n += packet.UDPHeaderLen
	case pkt.ICMP != nil:
		n += 8 + len(pkt.ICMP.Body)
	}
	return n
}
