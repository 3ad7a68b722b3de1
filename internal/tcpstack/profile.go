// Package tcpstack implements endpoint TCP: a connection state machine
// with handshake, data transfer, reassembly, retransmission, and — the
// part this study turns on — configurable packet-acceptance behaviour
// ("ignore paths") matching several generations of the Linux TCP stack.
//
// The paper derives its insertion packets from an "ignore path" analysis
// of Linux 4.4 (§5.3, Table 3) and cross-validates against 4.0, 3.14,
// 2.6.34 and 2.4.37. Each of those stacks is available here as a
// Profile; the Disposition function is the executable form of that
// analysis and is what internal/ignorepath enumerates against.
//
// The profiles also carry the kernels' ACK-loop limits, which decide
// whether an ignored segment is answered, not its disposition under
// Classify. Without them a censor that resets every packet of a
// blocked pair and a server that challenges every reset would
// ping-pong for as long as the block lasts.
package tcpstack

import (
	"time"

	"intango/internal/packet"
)

// SYNPolicy describes how a stack treats a SYN arriving on an
// ESTABLISHED connection.
type SYNPolicy int

const (
	// SYNChallengeACK: RFC 5961 — never accept, reply with a challenge
	// ACK (Linux ≥ 3.8 / 4.x).
	SYNChallengeACK SYNPolicy = iota
	// SYNIgnore: silently ignore (Linux 3.14 per §5.3).
	SYNIgnore
	// SYNResetInWindow: RFC 793 — an in-window SYN aborts the
	// connection with a RST (older stacks). Out-of-window SYNs are
	// ignored.
	SYNResetInWindow
)

// RSTPolicy describes RST sequence validation.
type RSTPolicy int

const (
	// RSTExactSeq: RFC 5961 — accept only seq == rcv_nxt; an otherwise
	// in-window RST draws a challenge ACK.
	RSTExactSeq RSTPolicy = iota
	// RSTInWindow: RFC 793 — any in-window RST aborts.
	RSTInWindow
)

// Profile captures the version-specific behaviours of a TCP stack. The
// zero value is not useful; use one of the Linux* constructors.
type Profile struct {
	Name string

	// ValidatesChecksum drops packets whose TCP checksum is wrong.
	// Every real stack does; it is a knob so tests can isolate other
	// behaviours.
	ValidatesChecksum bool
	// ValidatesMD5 drops packets carrying an unsolicited RFC 2385 MD5
	// signature option when the connection never negotiated TCP-MD5.
	// Linux gained this with TCP-MD5 support in 2.6.20; Linux 2.4.37
	// lacks it and processes such packets normally (§5.3).
	ValidatesMD5 bool
	// PAWS drops segments whose timestamp is older than the most recent
	// one seen (RFC 7323), replying with a duplicate ACK.
	PAWS bool
	// RequiresACKFlag ignores any non-SYN/non-RST segment without the
	// ACK bit (so flagless and FIN-only packets are ignored). Linux
	// 2.6.34 and 2.4.37 instead accept such data (§5.3).
	RequiresACKFlag bool
	// ValidatesAckNumber ignores segments whose acknowledgment number
	// is outside the acceptable range (acks data never sent, or
	// ancient).
	ValidatesAckNumber bool
	// ValidatesIPLength ignores packets whose IP total length exceeds
	// the bytes actually received.
	ValidatesIPLength bool

	SYNInEstablished SYNPolicy
	RSTValidation    RSTPolicy

	// SegmentOverlap selects which copy wins when out-of-order segments
	// overlap. Linux keeps the data already queued (first wins).
	SegmentOverlap packet.OverlapPolicy

	// UseTimestamps includes the RFC 7323 timestamps option on segments
	// this stack sends (and negotiates it on SYN).
	UseTimestamps bool

	// MSS is the maximum segment size used when sending.
	MSS int
	// WindowSize is the advertised receive window.
	WindowSize int

	// Congestion selects the sender-side congestion control algorithm.
	// The zero value is CUBIC, the Linux default since 2.6.19; older
	// profiles set Reno.
	Congestion CongestionAlgo

	// InvalidRateLimit is the per-socket ACK-loop limit of Linux's
	// "tcp: mitigate ACK loops" series (4.0; tcp_oow_rate_limited,
	// sysctl tcp_invalid_ratelimit, 500 ms by default): a connection
	// answers at most one ignored segment per interval with an ACK.
	// As in the kernel, a segment that carries data or a FIN and no SYN
	// is exempt, being unlikely to be part of an ACK loop. Zero, for
	// the older kernels, means no limit. Mainline is modelled:
	// distribution kernels backported the limit to some 3.x releases.
	InvalidRateLimit time.Duration
}

func baseProfile(name string) Profile {
	return Profile{
		Name:               name,
		ValidatesChecksum:  true,
		ValidatesAckNumber: true,
		ValidatesIPLength:  true,
		SegmentOverlap:     packet.FirstWins,
		UseTimestamps:      true,
		MSS:                1460,
		WindowSize:         29200,
	}
}

// Linux44 models Linux 4.4 — the kernel the paper analyses in depth —
// with the 4.0 per-socket ACK-loop limit.
func Linux44() Profile {
	p := baseProfile("linux-4.4")
	p.ValidatesMD5 = true
	p.PAWS = true
	p.RequiresACKFlag = true
	p.SYNInEstablished = SYNChallengeACK
	p.RSTValidation = RSTExactSeq
	p.InvalidRateLimit = 500 * time.Millisecond
	return p
}

// Linux40 models Linux 4.0; §5.3 found no divergence from 4.4 along the
// studied axes, and 4.0 introduced the per-socket ACK-loop limit.
func Linux40() Profile {
	p := Linux44()
	p.Name = "linux-4.0"
	return p
}

// Linux314 models Linux 3.14: identical to 4.4 except that a SYN on an
// ESTABLISHED connection is silently ignored (§5.3), and that it
// predates the per-socket ACK-loop limit: only the host-wide challenge
// ACK budget (Linux 3.6) bounds its answers.
func Linux314() Profile {
	p := Linux44()
	p.Name = "linux-3.14"
	p.SYNInEstablished = SYNIgnore
	p.InvalidRateLimit = 0
	return p
}

// Linux2634 models Linux 2.6.34: accepts data packets without the ACK
// flag, pre-RFC-5961 RST/SYN validation, no ACK-loop limit.
func Linux2634() Profile {
	p := baseProfile("linux-2.6.34")
	p.ValidatesMD5 = true // TCP-MD5 landed in 2.6.20
	p.PAWS = true
	p.RequiresACKFlag = false
	p.SYNInEstablished = SYNResetInWindow
	p.RSTValidation = RSTInWindow
	// §3.4 "variations in server implementations": some older stacks
	// resolve overlapping out-of-order segments in favour of the junk
	// copy, "just like the GFW", breaking the out-of-order evasion.
	p.SegmentOverlap = packet.LastWins
	return p
}

// Linux2437 models Linux 2.4.37: like 2.6.34 but with no RFC 2385
// support at all, so unsolicited MD5 options are not a discrepancy
// against it (§5.3).
func Linux2437() Profile {
	p := Linux2634()
	p.Name = "linux-2.4.37"
	p.ValidatesMD5 = false
	p.Congestion = CongestionReno // pre-CUBIC kernel
	return p
}

// AllProfiles returns every modelled stack, newest first.
func AllProfiles() []Profile {
	return []Profile{Linux44(), Linux40(), Linux314(), Linux2634(), Linux2437()}
}
