package core

import (
	"time"

	"intango/internal/packet"
)

// Emission is one packet a strategy wants on the wire. Insertion
// packets are re-sent Env.Repeat times to survive loss; real packets go
// out exactly once.
type Emission struct {
	Pkt       *packet.Packet
	Insertion bool
	// Delay postpones the emission by that much virtual time (the
	// `delay` primitive); insertion repeat waves stack on top of it.
	Delay time.Duration
}

// real wraps the client's own packet.
func real(p *packet.Packet) Emission { return Emission{Pkt: p} }

// insertion wraps a crafted packet.
func insertion(p *packet.Packet) Emission { return Emission{Pkt: p, Insertion: true} }

// Flow is the per-connection view a strategy works against, maintained
// by the Engine from the packets it intercepts.
type Flow struct {
	Tuple packet.FourTuple
	Env   *Env

	// ISS is the client's initial sequence number (from its SYN).
	ISS packet.Seq
	// ServerISN is the server's initial sequence number (from the
	// SYN/ACK), valid once HandshakeDone.
	ServerISN packet.Seq
	// SndNxt and RcvNxt track the client's live sequence state, from
	// observed traffic.
	SndNxt, RcvNxt packet.Seq
	// HandshakeDone is set once the client has ACKed the SYN/ACK.
	HandshakeDone bool
	// DataSent counts client payload bytes so far; the first data
	// packet (DataSent==0) is where most strategies act.
	DataSent int

	// exec is the compiled executor's per-flow trigger state and plan
	// (see primitives.go). Keeping it here — not on the Strategy value —
	// means a strategy instance reused across flows cannot leak
	// one-shot state between connections.
	exec *execState

	// pool is the engine's fabric pool, which the pieces strategies
	// cut from the client's packets come from, and out the engine's
	// emissions buffer (Emit). The engine sets both; a Flow it does
	// not track has neither and allocates.
	pool *packet.Pool
	out  *[]Emission
}

// Emit returns ems copied into the engine's emissions buffer: the way a
// Strategy returns its emissions without allocating. The slice stays
// valid until the engine's next Outbound call. A Flow no engine tracks
// returns a new slice.
func (f *Flow) Emit(ems ...Emission) []Emission {
	if f.out == nil {
		return append([]Emission(nil), ems...)
	}
	*f.out = append((*f.out)[:0], ems...)
	return *f.out
}

// Strategy transforms the client's outbound packets, inserting crafted
// packets around them. Implementations are per-connection and may keep
// state across calls.
type Strategy interface {
	// Outbound intercepts one client packet and returns the emission
	// sequence that replaces it (usually including the packet itself).
	// The engine consumes the slice before its next Outbound call, so
	// it need live no longer: build it in the engine's buffer
	// (Flow.Emit), which a sustained per-segment strategy then fills
	// without allocating. The engine releases the client packet when
	// the sequence leaves it out.
	Outbound(f *Flow, pkt *packet.Packet) []Emission
}

// Factory builds a fresh per-connection strategy instance.
type Factory func() Strategy

// Passthrough is the no-strategy baseline.
type Passthrough struct{}

// Outbound implements Strategy.
func (Passthrough) Outbound(f *Flow, pkt *packet.Packet) []Emission {
	return f.Emit(real(pkt))
}

// --- crafting helpers shared by the strategies ---

// fakeSYN builds a SYN insertion packet with a deliberately wrong
// sequence number, outside the server's receive window so older Linux
// servers are not reset by it (§5.2).
func fakeSYN(f *Flow, disc Discrepancy) *packet.Packet {
	p := packet.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
		packet.FlagSYN, f.SndNxt.Add(1<<20), 0, nil)
	return f.Env.Apply(p, disc)
}

// fakeSYNACK builds the TCB Reversal insertion packet: a SYN/ACK from
// the client that the evolved GFW mistakes for the server's.
func fakeSYNACK(f *Flow, disc Discrepancy) *packet.Packet {
	p := packet.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
		packet.FlagSYN|packet.FlagACK,
		packet.Seq(f.Env.Rand.Uint32()), packet.Seq(f.Env.Rand.Uint32()), nil)
	return f.Env.Apply(p, disc)
}

// teardownPacket builds a RST, RST/ACK or FIN insertion packet carrying
// the connection's live sequence numbers.
func teardownPacket(f *Flow, flags uint8, disc Discrepancy) *packet.Packet {
	var ack packet.Seq
	if flags&packet.FlagACK != 0 {
		ack = f.RcvNxt
	}
	p := packet.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
		flags, f.SndNxt, ack, nil)
	return f.Env.Apply(p, disc)
}

// desyncPacket builds the §5.1 desynchronization packet: one byte of
// junk at a far-out-of-window sequence number. The server ignores it
// naturally (out of window); a GFW in the resynchronization state
// adopts its sequence and goes blind to the real stream.
func desyncPacket(f *Flow) *packet.Packet {
	p := packet.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
		packet.FlagPSH|packet.FlagACK, f.SndNxt.Add(1<<20), f.RcvNxt, []byte{'z'})
	return p.Finalize()
}

// prefillPacket builds an in-order junk data packet shadowing the real
// segment: same sequence range, filler payload.
func prefillPacket(f *Flow, realPkt *packet.Packet, disc Discrepancy) *packet.Packet {
	p := packet.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
		packet.FlagPSH|packet.FlagACK, realPkt.TCP.Seq, f.RcvNxt, junk(len(realPkt.Payload)))
	return f.Env.Apply(p, disc)
}
