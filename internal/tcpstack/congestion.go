package tcpstack

import (
	"math"
	"time"

	"intango/internal/packet"
)

// This file is the sender side of congestion control, layered on the
// retransmission machinery in conn.go: slow start and congestion
// avoidance (Reno or CUBIC per profile), fast retransmit/fast
// recovery on three duplicate ACKs (RFC 5681/6582), RTT-sampled
// retransmission timeouts (RFC 6298), and the persist timer that
// probes a peer's closed receive window. None of it matters on an
// unconstrained link — the initial window dwarfs the request/response
// exchanges of the evasion campaigns — but on a rated link (netem
// `bw=`) it is what turns duplicate/reorder primitives into a
// measurable goodput cost.

// CongestionAlgo selects the sender-side congestion control
// algorithm.
type CongestionAlgo int

const (
	// CongestionCubic is the Linux default since 2.6.19 (RFC 8312
	// shape: cubic growth toward the pre-loss window).
	CongestionCubic CongestionAlgo = iota
	// CongestionReno is classic AIMD (RFC 5681): halve on loss, one
	// MSS per RTT in congestion avoidance.
	CongestionReno
)

// String names the algorithm.
func (a CongestionAlgo) String() string {
	if a == CongestionReno {
		return "reno"
	}
	return "cubic"
}

// CUBIC constants (RFC 8312): beta is the multiplicative decrease,
// cubicC the aggressiveness of the cubic growth term.
const (
	cubicBeta = 0.7
	cubicC    = 0.4
)

// initialSsthresh is effectively infinite: slow start until the first
// loss event.
const initialSsthresh = 1 << 30

// initCongestion seeds the congestion state of a new connection:
// IW10 (RFC 6928) and an unbounded slow-start threshold.
func (c *Conn) initCongestion() {
	c.cwnd = 10 * c.stack.Profile.MSS
	c.ssthresh = initialSsthresh
}

// sndWnd is the effective send window: the peer's advertised window
// capped by the congestion window.
func (c *Conn) sndWnd() int {
	return min(c.peerWnd, c.cwnd)
}

// isDupAck applies the strict RFC 5681 definition: a pure ACK (no
// payload, no SYN/FIN) that acknowledges nothing new while data is
// outstanding and the advertised window is unchanged. Challenge ACKs
// elicited by insertion packets mostly fail the window/outstanding
// tests, which keeps spurious fast retransmits out of the campaigns.
func (c *Conn) isDupAck(tcp *packet.TCPHeader, payloadLen, prevWnd int) bool {
	return payloadLen == 0 &&
		tcp.HasFlag(packet.FlagACK) &&
		tcp.Flags&(packet.FlagSYN|packet.FlagFIN) == 0 &&
		len(c.retx) > 0 &&
		tcp.Ack == c.sndUna &&
		int(tcp.Window) == prevWnd
}

// onDupAck counts duplicate ACKs and runs fast retransmit / fast
// recovery (RFC 6582 NewReno shape: recovery ends when the ACK
// covers everything outstanding at loss detection).
func (c *Conn) onDupAck() {
	mss := c.stack.Profile.MSS
	if c.inRecovery {
		// Each further dup ACK signals another departed segment:
		// inflate so new data can go out.
		c.cwnd += mss
		c.pump()
		return
	}
	c.dupAcks++
	if c.dupAcks < 3 {
		return
	}
	c.enterRecovery()
}

// enterRecovery halves per the profile's algorithm, fast-retransmits
// the oldest outstanding segment, and inflates by the three segments
// the dup ACKs signalled.
func (c *Conn) enterRecovery() {
	mss := c.stack.Profile.MSS
	c.ssthresh = c.ssthreshOnLoss()
	c.recover = c.sndNxt
	c.inRecovery = true
	c.cwnd = c.ssthresh + 3*mss
	seg := &c.retx[0]
	if c.stack.Obs != nil {
		c.stack.Obs.Count("tcpstack.fast-retransmit")
		c.stack.Obs.Trace("tcpstack", "fast-retransmit", uint32(seg.seq), seg.flags, "")
	}
	c.rttTiming = false // Karn: never time a retransmitted segment
	c.transmit(seg.flags, seg.seq, c.rcvNxt, seg.data)
	c.armRetx()
}

// onAckAdvance updates congestion state for acked new bytes; called
// from ackAdvance before the send window reopens.
func (c *Conn) onAckAdvance(ack packet.Seq, acked int) {
	mss := c.stack.Profile.MSS
	c.dupAcks = 0
	if c.inRecovery {
		if !ack.AtOrAfter(c.recover) {
			// Partial ACK: retransmit the next hole, stay in recovery
			// with the window deflated by what was acked.
			if len(c.retx) > 0 {
				seg := &c.retx[0]
				c.rttTiming = false
				c.transmit(seg.flags, seg.seq, c.rcvNxt, seg.data)
				c.armRetx()
			}
			c.cwnd = max(c.cwnd-acked+mss, mss)
			return
		}
		c.inRecovery = false
		c.cwnd = c.ssthresh
		return
	}
	if c.cwnd < c.ssthresh {
		// Slow start with appropriate byte counting (RFC 3465).
		c.cwnd += min(acked, mss)
		return
	}
	c.avoidanceAck(acked)
}

// onRetxTimeout is the congestion half of an RTO: collapse to one
// segment and restart slow start toward half the flight (RFC 5681
// §3.1, or the CUBIC equivalent).
func (c *Conn) onRetxTimeout() {
	c.ssthresh = c.ssthreshOnLoss()
	c.cwnd = c.stack.Profile.MSS
	c.inRecovery = false
	c.dupAcks = 0
	c.rttTiming = false
}

// ssthreshOnLoss applies the profile's multiplicative decrease and,
// for CUBIC, records the pre-loss window as the new plateau.
func (c *Conn) ssthreshOnLoss() int {
	mss := c.stack.Profile.MSS
	inflight := int(c.sndNxt.Diff(c.sndUna))
	if c.stack.Profile.Congestion == CongestionReno {
		return max(inflight/2, 2*mss)
	}
	c.cubicWMax = float64(max(c.cwnd, inflight))
	c.cubicEpoch = 0 // next avoidance ACK starts a fresh epoch
	return max(int(float64(c.cwnd)*cubicBeta), 2*mss)
}

// avoidanceAck grows cwnd in congestion avoidance: classic AIMD for
// Reno, the RFC 8312 cubic curve toward (and past) the pre-loss
// plateau for CUBIC. CUBIC's float arithmetic never leaves this
// function — cwnd stays an integer byte count, and the same binary
// computes the same window everywhere, so campaign determinism is
// unaffected.
func (c *Conn) avoidanceAck(acked int) {
	mss := c.stack.Profile.MSS
	if c.stack.Profile.Congestion == CongestionReno {
		c.cwnd += max(mss*mss/c.cwnd, 1)
		return
	}
	now := c.stack.Sim.Now()
	if c.cubicEpoch == 0 {
		c.cubicEpoch = now
		if c.cubicWMax < float64(c.cwnd) {
			c.cubicWMax = float64(c.cwnd)
		}
		wm := c.cubicWMax / float64(mss)
		c.cubicK = math.Cbrt(wm * (1 - cubicBeta) / cubicC)
	}
	t := (now - c.cubicEpoch).Seconds()
	wCubic := cubicC*math.Pow(t-c.cubicK, 3) + c.cubicWMax/float64(mss)
	target := int(wCubic * float64(mss))
	if target <= c.cwnd {
		return
	}
	step := (target - c.cwnd) * mss / c.cwnd
	if step < 1 {
		step = 1
	}
	if step > mss {
		step = mss // at most one MSS per ACK, like the kernel
	}
	c.cwnd += step
}

// sampleRTT folds one round-trip measurement into the RFC 6298
// smoothed estimator.
func (c *Conn) sampleRTT(r time.Duration) {
	if r <= 0 {
		r = time.Nanosecond
	}
	if c.srtt == 0 {
		c.srtt = r
		c.rttvar = r / 2
		return
	}
	d := c.srtt - r
	if d < 0 {
		d = -d
	}
	c.rttvar = (3*c.rttvar + d) / 4
	c.srtt = (7*c.srtt + r) / 8
}

// currentRTO is the RFC 6298 estimate srtt + 4·rttvar clamped to
// [MinRTO, MaxRTO], or InitialRTO before the first sample. The
// 200ms MinRTO floor matches Linux; at simulated RTTs it always
// binds, so sampled RTOs reproduce the old fixed InitialRTO timing
// exactly.
func (c *Conn) currentRTO() time.Duration {
	if c.srtt == 0 {
		return InitialRTO
	}
	return min(max(c.srtt+4*c.rttvar, MinRTO), MaxRTO)
}

// armPersist starts the zero-window probe timer (RFC 9293 §3.8.6.1)
// if it is not already running. The probe interval starts at the
// current RTO and doubles up to MaxRTO while the window stays closed.
func (c *Conn) armPersist() {
	if c.persistArmed {
		return
	}
	c.persistArmed = true
	if c.persistRTO == 0 {
		c.persistRTO = c.currentRTO()
	}
	c.persistTimer++
	gen := c.persistTimer
	c.stack.Sim.At(c.persistRTO, func() { c.onPersistTimer(gen) })
}

// onPersistTimer fires while the peer's window is closed: when
// nothing is outstanding (the retransmit timer covers the case when
// something is), it transmits one byte of queued data — a window
// probe that elicits an ACK carrying the peer's current window. The
// byte counts as sent (sndNxt advances, so the eventual ACK passes
// acknowledgment-number validation) but is kept out of the
// retransmission queue: re-probing is the persist timer's job, with
// its own backoff and no MaxRetries escalation, so a long-closed
// window never aborts the connection.
func (c *Conn) onPersistTimer(gen int) {
	if gen != c.persistTimer || c.state == Closed {
		return
	}
	c.persistArmed = false
	if c.peerWnd > 0 || (!c.probeOut && len(c.sendBuf) == 0) {
		c.persistRTO = 0
		return
	}
	if len(c.retx) == 0 {
		if !c.probeOut {
			c.probeOut = true
			c.probeSeq = c.sndNxt
			c.probeData = c.sendBuf[0]
			c.sendBuf = c.sendBuf[1:]
			c.sndNxt = c.sndNxt.Add(1)
		}
		if c.stack.Obs != nil {
			c.stack.Obs.Count("tcpstack.zero-window-probe")
			c.stack.Obs.Trace("tcpstack", "zero-window-probe", uint32(c.probeSeq), 0, "")
		}
		c.transmit(packet.FlagPSH|packet.FlagACK, c.probeSeq, c.rcvNxt, []byte{c.probeData})
	}
	c.persistRTO = min(2*c.persistRTO, MaxRTO)
	c.armPersist()
}

// exitPersist cancels the probe timer once the window reopens. An
// unacknowledged probe byte is handed to the retransmission queue:
// from here on ordinary recovery covers it, so a lost probe cannot
// leave a one-byte hole in front of newly pumped data.
func (c *Conn) exitPersist() {
	if c.probeOut && !c.sndUna.After(c.probeSeq) {
		c.retx = append([]outSeg{{
			seq:   c.probeSeq,
			data:  []byte{c.probeData},
			flags: packet.FlagPSH | packet.FlagACK,
		}}, c.retx...)
		c.probeOut = false
		c.armRetx()
	}
	if !c.persistArmed && c.persistRTO == 0 {
		return
	}
	c.persistTimer++
	c.persistArmed = false
	c.persistRTO = 0
}
