package middlebox

import (
	"math/rand"

	"intango/internal/netem"
	"intango/internal/packet"
)

// StatefulFirewall is a sequence-tracking connection firewall of the
// kind §3.4 blames for "Failure 1": it accepts insertion packets the
// end host would ignore, updates its connection state from them, and
// then blocks the legitimate packets that follow. A RST or FIN that
// traverses it kills the connection entry; subsequent packets on that
// connection are dropped.
type StatefulFirewall struct {
	name string
	// ValidateSeq requires in-window sequence numbers before a control
	// packet is honored.
	ValidateSeq bool
	// honorProb is the probability a RST/FIN kills the connection
	// entry (1 unless SetRSTHonorProb was called): some deployments
	// only sometimes act on control packets.
	honorProb float64
	rng       *rand.Rand
	// conns is made at the first SYN; spare holds the connection
	// entries of the trials before, while the simulator lends.
	conns map[packet.FourTuple]*fwConn
	spare netem.Spares[fwConn]
}

// SetRSTHonorProb makes RST/FIN handling probabilistic.
func (f *StatefulFirewall) SetRSTHonorProb(p float64, rng *rand.Rand) {
	f.honorProb = p
	f.rng = rng
}

func (f *StatefulFirewall) honors() bool {
	if f.rng == nil {
		return true
	}
	return f.rng.Float64() < f.honorProb
}

type fwConn struct {
	established bool
	dead        bool
	// next expected sequence per direction, keyed by canonical order.
	seqLo, seqHi   packet.Seq
	haveLo, haveHi bool
}

// NewStatefulFirewall builds a firewall middlebox.
func NewStatefulFirewall(name string, validateSeq bool) *StatefulFirewall {
	f := new(StatefulFirewall)
	f.Reset(name, validateSeq)
	return f
}

// Reset returns f to NewStatefulFirewall(name, validateSeq)'s state,
// keeping its connection table's storage. Reset on a zero
// StatefulFirewall is NewStatefulFirewall.
func (f *StatefulFirewall) Reset(name string, validateSeq bool) {
	f.spare.Rewind()
	clear(f.conns)
	*f = StatefulFirewall{name: name, ValidateSeq: validateSeq, conns: f.conns, spare: f.spare}
}

// Name implements netem.Processor.
func (f *StatefulFirewall) Name() string { return f.name }

// ConnDead reports whether the firewall killed the connection state for
// the tuple (test/diagnostic hook).
func (f *StatefulFirewall) ConnDead(t packet.FourTuple) bool {
	c, ok := f.conns[t.Canonical()]
	return ok && c.dead
}

// Process implements netem.Processor.
func (f *StatefulFirewall) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if pkt.TCP == nil {
		return netem.Pass
	}
	key := pkt.Tuple().Canonical()
	tcp := pkt.TCP
	c := f.conns[key]
	if c == nil {
		if tcp.FlagsOnly(packet.FlagSYN) {
			if f.conns == nil {
				f.conns = make(map[packet.FourTuple]*fwConn)
			}
			c = f.spare.Get(ctx.Sim.Lends())
			*c = fwConn{}
			f.conns[key] = c
			return netem.Pass
		}
		// Unknown flow: permissive pass (a NAT would drop; the plain
		// firewall only polices flows it saw open).
		return netem.Pass
	}
	if c.dead {
		// The §3.4 Failure-1 signature: the firewall honored an earlier
		// teardown packet and now blocks the legitimate flow.
		if o := ctx.Obs(); o != nil {
			o.Count("middlebox.fw-drop-dead-conn")
		}
		return netem.Drop
	}
	forward := pkt.Tuple() == key // travelling in canonical direction
	if f.ValidateSeq && c.established {
		if exp, ok := f.expected(c, forward); ok {
			if d := tcp.Seq.Diff(exp); d < -(1<<16) || d > 1<<16 {
				// Wildly out-of-window: not plausible for this flow.
				if o := ctx.Obs(); o != nil {
					o.Count("middlebox.fw-drop-out-of-window")
				}
				return netem.Drop
			}
		}
	}
	switch {
	case tcp.HasFlag(packet.FlagRST):
		if f.honors() {
			c.dead = true
			if o := ctx.Obs(); o != nil {
				o.Count("middlebox.fw-conn-killed")
				o.TracePkt("middlebox", "fw-conn-killed", pkt.Lin.ID, pkt.Lin.Parent, uint32(tcp.Seq), tcp.Flags, f.name+" rst")
			}
		}
		return netem.Pass // the killing packet itself is forwarded
	case tcp.HasFlag(packet.FlagFIN):
		if f.honors() {
			c.dead = true
			if o := ctx.Obs(); o != nil {
				o.Count("middlebox.fw-conn-killed")
				o.TracePkt("middlebox", "fw-conn-killed", pkt.Lin.ID, pkt.Lin.Parent, uint32(tcp.Seq), tcp.Flags, f.name+" fin")
			}
		}
		return netem.Pass
	case tcp.HasFlag(packet.FlagSYN) && tcp.HasFlag(packet.FlagACK):
		c.established = true
	}
	f.track(c, forward, pkt)
	return netem.Pass
}

func (f *StatefulFirewall) expected(c *fwConn, forward bool) (packet.Seq, bool) {
	if forward {
		return c.seqLo, c.haveLo
	}
	return c.seqHi, c.haveHi
}

func (f *StatefulFirewall) track(c *fwConn, forward bool, pkt *packet.Packet) {
	end := pkt.EndSeq()
	if forward {
		if !c.haveLo || end.After(c.seqLo) {
			c.seqLo, c.haveLo = end, true
		}
	} else {
		if !c.haveHi || end.After(c.seqHi) {
			c.seqHi, c.haveHi = end, true
		}
	}
}

// NAT rewrites the client's address to a public one and back, with
// RFC 1624 incremental checksum adjustment — which, like real NAT,
// preserves a deliberately wrong TCP checksum rather than repairing it.
type NAT struct {
	name    string
	Inside  packet.Addr
	Outside packet.Addr
}

// NewNAT builds a NAT translating inside→outside for client traffic.
func NewNAT(name string, inside, outside packet.Addr) *NAT {
	return &NAT{name: name, Inside: inside, Outside: outside}
}

// Name implements netem.Processor.
func (n *NAT) Name() string { return n.name }

// Process implements netem.Processor.
func (n *NAT) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	switch {
	case dir == netem.ToServer && pkt.IP.Src == n.Inside:
		adjustL4Checksum(pkt, n.Inside, n.Outside)
		pkt.IP.Src = n.Outside
		pkt.IP.UpdateChecksum()
	case dir == netem.ToClient && pkt.IP.Dst == n.Outside:
		adjustL4Checksum(pkt, n.Outside, n.Inside)
		pkt.IP.Dst = n.Inside
		pkt.IP.UpdateChecksum()
	}
	return netem.Pass
}

// adjustL4Checksum applies the RFC 1624 incremental update for an
// address substitution old→new to the TCP/UDP checksum.
func adjustL4Checksum(pkt *packet.Packet, oldAddr, newAddr packet.Addr) {
	var ck *uint16
	switch {
	case pkt.TCP != nil:
		ck = &pkt.TCP.Checksum
	case pkt.UDP != nil:
		ck = &pkt.UDP.Checksum
	default:
		return
	}
	sum := uint32(^*ck)
	for i := 0; i < 4; i += 2 {
		oldW := uint32(oldAddr[i])<<8 | uint32(oldAddr[i+1])
		newW := uint32(newAddr[i])<<8 | uint32(newAddr[i+1])
		sum += ^oldW & 0xffff
		sum += newW
	}
	for sum > 0xffff {
		sum = (sum >> 16) + (sum & 0xffff)
	}
	*ck = ^uint16(sum)
}
