// Package middlebox implements the in-path network middleboxes whose
// interference §3.4 identifies as a major cause of evasion failures:
// fragment droppers and reassemblers, checksum validators, flag-based
// droppers, stateful sequence-checking firewalls, and NAT. The four
// client-side profiles measured in Table 2 (Aliyun, QCloud, China
// Unicom Shijiazhuang and Tianjin) are provided as constructors.
package middlebox

import (
	"math/rand"

	"intango/internal/netem"
	"intango/internal/packet"
)

// FragmentDropper discards IP fragments (Aliyun, Table 2: clients were
// unable to send out IP fragments).
type FragmentDropper struct{}

// Name implements netem.Processor.
func (FragmentDropper) Name() string { return "frag-dropper" }

// Process implements netem.Processor.
func (FragmentDropper) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if pkt.IP.IsFragment() {
		return netem.Drop
	}
	return netem.Pass
}

// FragmentReassembler buffers IP fragments and forwards the rebuilt
// datagram — the Table 2 behaviour that makes fragmented requests
// "deterministically captured by the GFW" downstream.
type FragmentReassembler struct {
	r packet.Reassembler
}

// NewFragmentReassembler returns a reassembler middlebox. It rebuilds
// with latest-copy-wins semantics, which is what makes fragmented
// requests "deterministically captured by the GFW" downstream (§3.4):
// the reassembled datagram carries the real data, not the decoy.
func NewFragmentReassembler() *FragmentReassembler {
	return new(FragmentReassembler).reset()
}

// reset empties m as NewFragmentReassembler builds it, keeping its
// storage, and returns it.
func (m *FragmentReassembler) reset() *FragmentReassembler {
	m.r.Reset(packet.LastWins)
	return m
}

// Name implements netem.Processor.
func (m *FragmentReassembler) Name() string { return "frag-reassembler" }

// Process implements netem.Processor.
func (m *FragmentReassembler) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if !pkt.IP.IsFragment() {
		return netem.Pass
	}
	// The reassembler only reads the fragment, copying what it keeps,
	// and builds the rebuilt datagram from the fragment's pool, the
	// path's: the fabric releases it, as it does the fragment this Drop
	// ends.
	whole, err := m.r.AddAt(pkt, ctx.Sim.Now())
	if n := m.r.TakeEvicted(); n > 0 {
		if o := ctx.Obs(); o != nil {
			o.Registry().Add("middlebox.frag-evict", n)
		}
	}
	if err != nil || whole == nil {
		return netem.Drop // buffered (or broken): the fragment itself stops here
	}
	// The rebuilt datagram descends from the fragment that completed it.
	whole.Lin = packet.Lineage{Origin: packet.OriginMiddlebox, Parent: pkt.Lin.ID}
	if o := ctx.Obs(); o != nil {
		// The rebuilt datagram is what defeats fragment-based evasion
		// downstream (§3.4) — worth a dedicated counter.
		o.Count("middlebox.frag-reassembled")
		o.TracePkt("middlebox", "frag-reassembled", pkt.Lin.ID, pkt.Lin.Parent, uint32(whole.IP.ID), 0, m.Name())
	}
	ctx.Inject(dir, whole, 0)
	return netem.Drop
}

// ChecksumValidator drops TCP packets with incorrect checksums (China
// Unicom Tianjin, Table 2).
type ChecksumValidator struct{}

// Name implements netem.Processor.
func (ChecksumValidator) Name() string { return "checksum-validator" }

// Process implements netem.Processor.
func (ChecksumValidator) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if pkt.TCP != nil && !pkt.TCP.VerifyChecksum(pkt.IP.Src, pkt.IP.Dst, pkt.Payload) {
		return netem.Drop
	}
	return netem.Pass
}

// FlaglessDropper drops TCP packets with no flags set (China Unicom
// Tianjin, Table 2).
type FlaglessDropper struct{}

// Name implements netem.Processor.
func (FlaglessDropper) Name() string { return "flagless-dropper" }

// Process implements netem.Processor.
func (FlaglessDropper) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if pkt.TCP != nil && pkt.TCP.Flags == 0 {
		return netem.Drop
	}
	return netem.Pass
}

// FlagDropper drops client-originated TCP packets carrying the given
// flag with some probability — the "sometimes drops FIN/RST insertion
// packets" rows of Table 2.
type FlagDropper struct {
	Flag uint8
	Prob float64
	rng  *rand.Rand
	name string
}

// NewFlagDropper builds a dropper for flag with drop probability p.
func NewFlagDropper(name string, flag uint8, p float64, rng *rand.Rand) *FlagDropper {
	return new(FlagDropper).reset(name, flag, p, rng)
}

// reset makes m NewFlagDropper's dropper and returns it.
func (m *FlagDropper) reset(name string, flag uint8, p float64, rng *rand.Rand) *FlagDropper {
	*m = FlagDropper{Flag: flag, Prob: p, rng: rng, name: name}
	return m
}

// Name implements netem.Processor.
func (m *FlagDropper) Name() string { return m.name }

// Process implements netem.Processor.
func (m *FlagDropper) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	if dir == netem.ToServer && pkt.TCP != nil && pkt.TCP.HasFlag(m.Flag) && m.rng.Float64() < m.Prob {
		return netem.Drop
	}
	return netem.Pass
}
