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
