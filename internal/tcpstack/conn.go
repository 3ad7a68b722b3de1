package tcpstack

import (
	"slices"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
)

// State is a TCP connection state.
type State int

// TCP connection states (RFC 793 names).
const (
	Closed State = iota
	SynSent
	SynRecv
	Established
	FinWait1
	FinWait2
	CloseWait
	LastAck
	Closing
	TimeWait
)

// String names the state.
func (s State) String() string {
	switch s {
	case Closed:
		return "CLOSED"
	case SynSent:
		return "SYN_SENT"
	case SynRecv:
		return "SYN_RECV"
	case Established:
		return "ESTABLISHED"
	case FinWait1:
		return "FIN_WAIT_1"
	case FinWait2:
		return "FIN_WAIT_2"
	case CloseWait:
		return "CLOSE_WAIT"
	case LastAck:
		return "LAST_ACK"
	case Closing:
		return "CLOSING"
	case TimeWait:
		return "TIME_WAIT"
	default:
		return "?"
	}
}

// segment is buffered out-of-order data. Its data is a view of the
// connection's oooBuf.
type segment struct {
	seq  packet.Seq
	data []byte
	fin  bool
}

// outSeg is sent-but-unacknowledged data awaiting acknowledgment. Its
// data is a view of the send buffer's bytes, not a copy: Write only
// appends to sendBuf and pump only advances its start, so bytes once
// sent are never overwritten.
type outSeg struct {
	seq     packet.Seq
	data    []byte
	flags   uint8
	retries int
}

// Conn is one TCP connection on a Stack.
type Conn struct {
	stack *Stack
	// Local perspective: Src is this stack's address/port.
	local struct {
		addr packet.Addr
		port uint16
	}
	remote struct {
		addr packet.Addr
		port uint16
	}

	state State

	iss    packet.Seq
	sndUna packet.Seq
	sndNxt packet.Seq
	rcvNxt packet.Seq
	rcvWnd int

	tsEnabled   bool
	tsRecent    uint32
	hasTSRecent bool

	ooo    []segment // out-of-order receive queue
	oooBuf []byte    // the bytes of ooo's segments, restarted when ooo drains
	finSeq packet.Seq
	finAt  bool // peer FIN buffered at finSeq

	retx     []outSeg
	rtxTimer int32 // generation counter to invalidate stale timers
	rto      time.Duration

	// RFC 6298 RTT estimation. One segment is timed at a time (Karn's
	// algorithm): rttTiming marks a measurement in progress for the
	// segment ending at rttSeq, started at rttAt; retransmitting
	// anything cancels it.
	srtt, rttvar time.Duration
	rttTiming    bool
	rttSeq       packet.Seq
	rttAt        time.Duration

	// Congestion control (see congestion.go): cwnd/ssthresh in bytes,
	// duplicate-ACK counting toward fast retransmit, and the NewReno
	// recovery point. CUBIC keeps its plateau and epoch here too.
	cwnd       int
	ssthresh   int
	dupAcks    int
	inRecovery bool
	recover    packet.Seq
	cubicWMax  float64
	cubicK     float64
	cubicEpoch time.Duration

	// Persist timer for zero-window probing (see congestion.go).
	// probeOut marks one byte of sendBuf transmitted as a probe at
	// probeSeq, outside the retransmission queue.
	persistTimer int
	persistArmed bool
	persistRTO   time.Duration
	probeOut     bool
	probeSeq     packet.Seq
	probeData    byte

	// sendBuf stages data awaiting window room (its storage grows
	// through the simulator, see Simulator.Grow); peerWnd is the peer's
	// last advertised receive window; closePending defers the FIN
	// until sendBuf drains.
	sendBuf      []byte
	peerWnd      int
	closePending bool

	// recvBuf holds every in-order byte received; it grows by doubling
	// through the simulator (Simulator.Grow) unless a reader reserved
	// room for what is coming (Grow).
	recvBuf []byte

	// OnData is called with each chunk of newly in-order application
	// data. The chunk is a view of the tail of Received(), not a copy,
	// and must not be modified. It stays valid (recvBuf only appends)
	// until the simulator's next Reset, which takes the storage back;
	// a simulator never reset keeps it valid for good.
	OnData func(data []byte)
	// OnStateChange is called after every state transition.
	OnStateChange func(from, to State)

	// GotRST records that the connection was torn down by a RST.
	GotRST bool
	// AbortReason records why the connection aborted.
	AbortReason string

	// EstablishedAt is the virtual time the connection first entered
	// Established (zero if it never did). The experiment runner reads
	// it to close the handshake stage span.
	EstablishedAt time.Duration

	// FirstDataAt and LastDataAt bracket in-order application-data
	// delivery in virtual time (zero if no data arrived). Together
	// with len(Received()) they give the experiment runner per-trial
	// goodput without touching the hot path.
	FirstDataAt time.Duration
	LastDataAt  time.Duration

	// oowNext is the earliest virtual time the per-socket ACK-loop
	// limit lets this connection answer another ignored segment (see
	// ackLimited); zero until the limit first lets one out.
	oowNext time.Duration

	// causeID is the causal-tracing wire ID of the most recent inbound
	// segment this connection processed. Outgoing segments record it as
	// their lineage parent — the proximate cause of the transmission
	// (the segment a challenge ACK answers, the request a response
	// acknowledges). Zero for unprompted sends (the initial SYN,
	// timer-driven retransmissions before any arrival).
	causeID uint32
}

// State returns the connection state.
func (c *Conn) State() State { return c.state }

// Received returns all application data received so far. The slice
// is a view of the connection's receive buffer, valid until the
// simulator's next Reset (see Simulator.Grow).
func (c *Conn) Received() []byte { return c.recvBuf }

// Grow guarantees room for n more received bytes without another
// move, as bytes.Buffer.Grow does: a reader that knows how much is
// coming reserves it once instead of letting the buffer double its way
// up. The room comes from the simulator (Simulator.Grow): lent by a
// simulator that was reset, valid until its next Reset.
func (c *Conn) Grow(n int) {
	c.recvBuf = c.stack.Sim.Grow(c.recvBuf, n)
}

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.local.port }

// RemoteAddr returns the remote address and port.
func (c *Conn) RemoteAddr() (packet.Addr, uint16) { return c.remote.addr, c.remote.port }

// SndNxt returns the next sequence number this side will send. Evasion
// strategies use it to craft insertion packets consistent with the live
// connection.
func (c *Conn) SndNxt() packet.Seq { return c.sndNxt }

// RcvNxt returns the next expected peer sequence number.
func (c *Conn) RcvNxt() packet.Seq { return c.rcvNxt }

// ISS returns the initial send sequence number.
func (c *Conn) ISS() packet.Seq { return c.iss }

func (c *Conn) view() ConnView {
	return ConnView{
		State:       c.state,
		RcvNxt:      c.rcvNxt,
		RcvWnd:      c.rcvWnd,
		SndUna:      c.sndUna,
		SndNxt:      c.sndNxt,
		TSRecent:    c.tsRecent,
		HasTSRecent: c.hasTSRecent,
		MaxWindow:   c.stack.Profile.WindowSize,
	}
}

func (c *Conn) setState(s State) {
	if c.state == s {
		return
	}
	from := c.state
	c.state = s
	if s == Established && c.EstablishedAt == 0 {
		c.EstablishedAt = c.stack.Sim.Now()
	}
	if c.stack.Obs != nil {
		// State transitions are the tcpstack half of the censor-state
		// audit: keyed to the inbound segment that drove them.
		c.stack.Obs.TracePkt("tcpstack", "state", c.causeID, 0, 0, 0, c.stack.stateLabel(from, s))
	}
	if s == TimeWait {
		c.stack.Sim.At(TimeWaitDuration, func() {
			if c.state == TimeWait {
				c.abort("")
				c.AbortReason = "closed"
			}
		})
	}
	if c.OnStateChange != nil {
		c.OnStateChange(from, s)
	}
}

// tsNow returns the timestamp clock value (milliseconds of virtual
// time, offset so it is never zero).
func (c *Conn) tsNow() uint32 {
	return uint32(c.stack.Sim.Now()/time.Millisecond) + 1000
}

// buildPacket assembles an outgoing segment for this connection. The
// packet comes from the stack's pool (heap when none is attached), so
// its headers and buffers are recycled storage — receivers copy what
// they keep.
func (c *Conn) buildPacket(flags uint8, seq, ack packet.Seq, payload []byte) *packet.Packet {
	p := c.stack.Pool.Get()
	p.IP = packet.IPv4Header{TTL: 64, Protocol: packet.ProtoTCP, Src: c.local.addr, Dst: c.remote.addr}
	tcp := p.UseTCP()
	tcp.SrcPort, tcp.DstPort = c.local.port, c.remote.port
	tcp.Seq, tcp.Ack, tcp.Flags = seq, ack, flags
	tcp.Window = uint16(min(c.rcvWnd, 0xffff))
	p.SetPayload(payload)
	p.Lin = packet.Lineage{Origin: packet.OriginStack, Parent: c.causeID}
	if c.tsEnabled && c.stack.Profile.UseTimestamps {
		p.AddTimestampOption(c.tsNow(), c.tsRecent)
	}
	if flags&packet.FlagSYN != 0 {
		p.AddMSSOption(uint16(c.stack.Profile.MSS))
	}
	return p.Finalize()
}

func (c *Conn) transmit(flags uint8, seq, ack packet.Seq, payload []byte) {
	c.stack.send(c.buildPacket(flags, seq, ack, payload))
}

// sendData queues payload for reliable delivery and transmits it.
func (c *Conn) sendData(flags uint8, payload []byte) {
	seg := outSeg{seq: c.sndNxt, data: payload, flags: flags}
	c.retx = append(c.retx, seg)
	c.transmit(flags, seg.seq, c.rcvNxt, seg.data)
	c.sndNxt = c.sndNxt.Add(len(payload))
	if flags&(packet.FlagSYN|packet.FlagFIN) != 0 {
		c.sndNxt = c.sndNxt.Add(1)
	}
	if !c.rttTiming {
		// Time one segment at a time (Karn): this transmission, acked
		// un-retransmitted, yields the next RTT sample.
		c.rttTiming = true
		c.rttSeq = c.sndNxt
		c.rttAt = c.stack.Sim.Now()
	}
	if len(c.retx) == 1 {
		// The timer is anchored to the oldest unacked segment: arm on
		// the empty→non-empty transition only, never on later sends —
		// re-arming here on every transmission would push the oldest
		// segment's RTO out indefinitely under sustained writes.
		c.armRetx()
	}
}

// armRetx (re)starts the retransmission timer for the oldest unacked
// segment, invalidating any previously scheduled firing. The
// connection is its own timer (retxTimer), and the event carries the
// generation it was armed with, so arming allocates nothing.
func (c *Conn) armRetx() {
	if len(c.retx) == 0 {
		return
	}
	c.rtxTimer++
	c.stack.Sim.AtPacket(c.rto, (*retxTimer)(c), nil, int(c.rtxTimer), netem.ToServer)
}

// retxTimer is a connection seen as the handler of its retransmission
// timer's events.
type retxTimer Conn

// HandlePacket implements netem.PacketHandler: the timer armed with
// generation gen fires; a stale generation does nothing.
func (t *retxTimer) HandlePacket(_ *packet.Packet, gen int, _ netem.Direction) {
	(*Conn)(t).onRetxTimer(int32(gen))
}

func (c *Conn) onRetxTimer(gen int32) {
	if gen != c.rtxTimer || len(c.retx) == 0 || c.state == Closed {
		return
	}
	seg := &c.retx[0]
	seg.retries++
	if seg.retries > MaxRetries {
		if c.stack.Obs != nil {
			c.stack.Obs.Count("tcpstack.retransmission-limit")
			c.stack.Obs.Trace("tcpstack", "retransmission-limit", uint32(seg.seq), seg.flags, "")
		}
		c.abort("retransmission-limit")
		return
	}
	if c.stack.Obs != nil {
		c.stack.Obs.Count("tcpstack.retransmit")
		c.stack.Obs.Trace("tcpstack", "retransmit", uint32(seg.seq), seg.flags, "")
	}
	c.onRetxTimeout()
	c.transmit(seg.flags, seg.seq, c.rcvNxt, seg.data)
	c.rto *= 2
	if c.rto > MaxRTO {
		c.rto = MaxRTO
		if c.stack.Obs != nil {
			c.stack.Obs.Count("tcpstack.rto-capped")
		}
	}
	c.armRetx()
}

// Write queues application data for delivery; segments go out at the
// profile MSS, paced by the peer's advertised receive window.
func (c *Conn) Write(data []byte) {
	if c.state != Established && c.state != CloseWait {
		return
	}
	c.sendBuf = append(c.stack.Sim.Grow(c.sendBuf, len(data)), data...)
	c.pump()
}

// pump transmits queued data while the send window (the peer's
// advertised window capped by cwnd) has room, and the deferred FIN
// once the queue drains. A closed peer window hands off to the
// persist timer, whose probes discover when it reopens.
func (c *Conn) pump() {
	mss := c.stack.Profile.MSS
	for len(c.sendBuf) > 0 {
		if c.peerWnd <= 0 {
			c.armPersist()
			return
		}
		inflight := int(c.sndNxt.Diff(c.sndUna))
		room := c.sndWnd() - inflight
		if room <= 0 {
			return
		}
		n := min(min(len(c.sendBuf), mss), room)
		c.sendData(packet.FlagPSH|packet.FlagACK, c.sendBuf[:n])
		c.sendBuf = c.sendBuf[n:]
	}
	if c.closePending && len(c.sendBuf) == 0 {
		c.closePending = false
		c.sendFIN()
	}
}

// Close starts an orderly shutdown; the FIN follows any queued data.
func (c *Conn) Close() {
	if c.state != Established && c.state != CloseWait {
		return
	}
	if len(c.sendBuf) > 0 {
		c.closePending = true
		return
	}
	c.sendFIN()
}

func (c *Conn) sendFIN() {
	switch c.state {
	case Established:
		c.setState(FinWait1)
		c.sendData(packet.FlagFIN|packet.FlagACK, nil)
	case CloseWait:
		c.setState(LastAck)
		c.sendData(packet.FlagFIN|packet.FlagACK, nil)
	}
}

// Abandon closes the connection without a segment: its timers stop
// and its tuple is free. It is what Linux does to a connect
// interrupted in SYN_SENT, which sends no RST.
func (c *Conn) Abandon() {
	if c.state != Closed {
		c.abort("abandoned")
	}
}

func (c *Conn) abort(reason string) {
	c.AbortReason = reason
	c.rtxTimer++ // cancel timers
	c.persistTimer++
	c.persistArmed = false
	c.retx = c.retx[:0]
	c.setState(Closed)
	c.stack.removeConn(c)
}

func (c *Conn) sendAck() {
	c.transmit(packet.FlagACK, c.sndNxt, c.rcvNxt, nil)
}

// handleSegment is the connection's receive path.
func (c *Conn) handleSegment(pkt *packet.Packet) {
	c.causeID = pkt.Lin.ID
	d := Classify(c.stack.Profile, c.view(), pkt)
	c.stack.observe(c, pkt, d)
	switch d.Verdict {
	case Ignore:
		return
	case IgnoreWithAck:
		if c.ackLimited(pkt, d.Reason) {
			return
		}
		if d.Reason == "syn-retransmit" && c.state == SynRecv {
			// A retransmitted SYN re-elicits the SYN/ACK.
			c.transmit(packet.FlagSYN|packet.FlagACK, c.iss, c.rcvNxt, nil)
			return
		}
		c.sendAck()
		return
	case AbortConn:
		c.GotRST = true
		c.abort("rst: " + d.Reason)
		return
	case RespondRST:
		// RFC 793: RST takes its seq from the offending ack.
		c.transmit(packet.FlagRST, pkt.TCP.Ack, 0, nil)
		return
	}
	c.accept(pkt)
}

// challengeACKLimit is Linux's host-wide RFC 5961 budget
// (tcp_challenge_ack_limit, 3.6 to 4.6): at most this many challenge
// ACKs per second. Only the 3.14, 4.0 and 4.4 profiles send challenge
// ACKs, and all three have it, so it is a constant, not a Profile field.
const challengeACKLimit = 100

// ackLimited reports whether Linux's ACK-loop limits suppress the ACK
// answering pkt, an ignored segment (tcp_send_challenge_ack and
// tcp_oow_rate_limited), or the SYN/ACK answering a retransmitted SYN
// in SYN_RECV (tcp_check_req). The per-socket limit comes first: at
// most one answer per Profile.InvalidRateLimit, except to a segment
// carrying data or a FIN and no SYN, which is always answered and does
// not restart the interval. RFC 5961 challenge ACKs then draw on the
// stack's budget of challengeACKLimit per virtual second.
func (c *Conn) ackLimited(pkt *packet.Packet, reason string) bool {
	s := c.stack
	now := s.Sim.Now()
	if lim := s.Profile.InvalidRateLimit; lim > 0 && (pkt.SegLen() == 0 || pkt.TCP.HasFlag(packet.FlagSYN)) {
		if now < c.oowNext {
			s.Obs.Count("tcpstack.ack-ratelimited")
			return true
		}
		c.oowNext = now + lim
	}
	if reason == "rst-in-window-challenge-ack" || reason == "syn-challenge-ack" {
		if sec := now / time.Second; sec != s.challengeSec {
			s.challengeSec, s.challenges = sec, 0
		}
		s.challenges++
		if s.challenges > challengeACKLimit {
			s.Obs.Count("tcpstack.challenge-ack-limited")
			return true
		}
	}
	return false
}

// accept processes an acceptable segment.
func (c *Conn) accept(pkt *packet.Packet) {
	tcp := pkt.TCP

	prevWnd := c.peerWnd
	c.peerWnd = int(tcp.Window)

	// Track the peer's timestamp for PAWS and echoing.
	if tsval, _, ok := tcp.Timestamps(); ok {
		if !c.hasTSRecent || int32(tsval-c.tsRecent) >= 0 {
			c.tsRecent = tsval
			c.hasTSRecent = true
		}
	} else if c.state == SynSent || c.state == SynRecv {
		// Peer did not negotiate timestamps.
		if tcp.HasFlag(packet.FlagSYN) {
			c.tsEnabled = false
		}
	}

	switch c.state {
	case SynSent:
		// Classify only lets SYN/ACK with a good ack through.
		c.rcvNxt = tcp.Seq.Add(1)
		c.ackAdvance(tcp.Ack)
		c.setState(Established)
		c.sendAck()
		return
	case SynRecv:
		if tcp.HasFlag(packet.FlagACK) && tcp.Ack == c.sndNxt {
			c.ackAdvance(tcp.Ack)
			// The established socket starts its ACK-loop interval
			// afresh (tcp_create_openreq_child).
			c.oowNext = 0
			c.setState(Established)
		}
		// Data may ride on the handshake-completing ACK: fall through.
	}

	if tcp.HasFlag(packet.FlagACK) {
		if c.isDupAck(tcp, len(pkt.Payload), prevWnd) {
			c.onDupAck()
		} else {
			c.ackAdvance(tcp.Ack)
		}
	}

	if prevWnd <= 0 && c.peerWnd > 0 {
		// Window reopened: stop probing and resume the transfer. A pure
		// window update acknowledges nothing, so ackAdvance would not
		// pump.
		c.exitPersist()
		c.pump()
	}

	c.ingestData(pkt)
}

// ackAdvance retires retransmission state covered by ack, samples the
// RTT, and updates the congestion window.
func (c *Conn) ackAdvance(ack packet.Seq) {
	if ack.AtOrBefore(c.sndUna) {
		return
	}
	if c.rttTiming && ack.AtOrAfter(c.rttSeq) {
		c.rttTiming = false
		c.sampleRTT(c.stack.Sim.Now() - c.rttAt)
	}
	acked := int(ack.Diff(c.sndUna))
	c.sndUna = ack
	if c.probeOut && ack.After(c.probeSeq) {
		c.probeOut = false // zero-window probe byte acknowledged
	}
	keep := c.retx[:0]
	for _, s := range c.retx {
		end := s.seq.Add(len(s.data))
		if s.flags&(packet.FlagSYN|packet.FlagFIN) != 0 {
			end = end.Add(1)
		}
		if end.After(ack) {
			keep = append(keep, s)
		}
	}
	c.retx = keep
	c.onAckAdvance(ack, acked)
	c.rto = c.currentRTO()
	c.rtxTimer++
	c.armRetx()
	c.pump()
	// Progress the closing handshake.
	switch c.state {
	case FinWait1:
		if c.sndUna == c.sndNxt {
			c.setState(FinWait2)
		}
	case LastAck:
		if c.sndUna == c.sndNxt {
			c.abort("")
			c.AbortReason = "closed"
		}
	case Closing:
		if c.sndUna == c.sndNxt {
			c.setState(TimeWait)
		}
	}
}

// ingestData runs reassembly on the segment's payload and FIN.
func (c *Conn) ingestData(pkt *packet.Packet) {
	tcp := pkt.TCP
	segLen := len(pkt.Payload)
	fin := tcp.HasFlag(packet.FlagFIN)
	if segLen == 0 && !fin {
		return
	}
	seq := tcp.Seq
	end := seq.Add(segLen)

	// Entirely old data: duplicate ACK.
	if end.AtOrBefore(c.rcvNxt) && !(fin && end == c.rcvNxt) {
		c.sendAck()
		return
	}
	// Entirely beyond the window: duplicate ACK (this is the path an
	// out-of-window desynchronization packet takes on a real server).
	if seq.AtOrAfter(c.rcvNxt.Add(c.rcvWnd)) {
		c.sendAck()
		return
	}

	switch {
	case segLen == 0:
	case seq.AtOrBefore(c.rcvNxt) && end.After(c.rcvNxt) && len(c.ooo) == 0:
		// New in-order bytes with nothing queued: deliver them without
		// copying the segment first.
		c.deliver(pkt.Payload[c.rcvNxt.Diff(seq):])
	default:
		c.enqueue(seq, pkt.Payload)
	}
	if fin {
		c.finAt = true
		c.finSeq = end
	}
	c.drain()
	if len(c.ooo) == 0 {
		// Nothing views the buffer once the queue drains.
		c.oooBuf = packet.Reuse(c.oooBuf)
	}
	c.sendAck()
}

// enqueue copies an out-of-order segment's data into oooBuf and queues
// it, honoring the profile's overlap policy: drain takes the first
// segment that reaches the edge, so first-wins appends and last-wins
// puts the newest first.
func (c *Conn) enqueue(seq packet.Seq, data []byte) {
	start := len(c.oooBuf)
	c.oooBuf = append(c.stack.Sim.Grow(c.oooBuf, len(data)), data...)
	seg := segment{seq: seq, data: c.oooBuf[start:]}
	if c.stack.Profile.SegmentOverlap == packet.FirstWins {
		c.ooo = append(c.ooo, seg)
		return
	}
	c.ooo = slices.Insert(c.ooo, 0, seg)
}

// drain moves contiguous data from the out-of-order queue into the
// receive buffer.
func (c *Conn) drain() {
	progress := true
	for progress {
		progress = false
		for i := range c.ooo {
			s := c.ooo[i]
			segEnd := s.seq.Add(len(s.data))
			if segEnd.AtOrBefore(c.rcvNxt) {
				// Fully consumed; remove.
				c.ooo = append(c.ooo[:i], c.ooo[i+1:]...)
				progress = true
				break
			}
			if s.seq.AtOrBefore(c.rcvNxt) {
				// Overlaps the edge: take the new part.
				c.ooo = append(c.ooo[:i], c.ooo[i+1:]...)
				c.deliver(s.data[c.rcvNxt.Diff(s.seq):])
				progress = true
				break
			}
		}
	}
	if c.finAt && c.finSeq == c.rcvNxt {
		c.finAt = false
		c.rcvNxt = c.rcvNxt.Add(1)
		c.peerFin()
	}
}

// deliver appends a non-empty chunk of in-order data to recvBuf,
// doubling its capacity when full, and hands the new tail to OnData.
func (c *Conn) deliver(chunk []byte) {
	now := c.stack.Sim.Now()
	if c.FirstDataAt == 0 {
		c.FirstDataAt = now
	}
	c.LastDataAt = now
	start := len(c.recvBuf)
	c.recvBuf = append(c.stack.Sim.Grow(c.recvBuf, len(chunk)), chunk...)
	c.rcvNxt = c.rcvNxt.Add(len(chunk))
	if c.OnData != nil {
		c.OnData(c.recvBuf[start:])
	}
}

// peerFin handles an in-order FIN from the peer.
func (c *Conn) peerFin() {
	switch c.state {
	case SynRecv, Established:
		c.setState(CloseWait)
	case FinWait1:
		c.setState(Closing)
	case FinWait2:
		c.setState(TimeWait)
	}
}
