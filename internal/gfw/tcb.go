package gfw

import (
	"slices"

	"intango/internal/dpi"
	"intango/internal/netem"
	"intango/internal/packet"
)

// tcbState is the GFW's shadow-connection state.
type tcbState int

const (
	// stTracking: the TCB is synchronized and reassembling.
	stTracking tcbState = iota
	// stResync: the re-synchronization state of Hypothesized New
	// Behavior 2 — the TCB adopts the sequence numbering of the next
	// client data packet or server SYN/ACK.
	stResync
)

func (s tcbState) String() string {
	if s == stResync {
		return "RESYNC"
	}
	return "TRACKING"
}

// tcb is one shadow connection. Orientation (who the GFW believes is
// the client) is fixed at creation — by the SYN's source, or, for a TCB
// created by a SYN/ACK, by the SYN/ACK's destination. TCB Reversal
// (§5.2) exploits exactly this.
type tcb struct {
	client, server packet.Addr
	cport, sport   uint16

	state tcbState

	clientISN  packet.Seq
	haveISN    bool
	clientNext packet.Seq // next expected client-side byte
	haveClient bool

	serverNext packet.Seq // best estimate of the server-side sequence
	haveServer bool

	synCount    int
	synAckCount int

	stream *stream

	classified dpi.Protocol
	torHandled bool

	// immune: the detection engine sampled an overload miss for this
	// flow; it will not be re-examined (§3.4's no-strategy successes).
	immune   bool
	detected bool

	// lastWins is the device's sampled segment-overlap behaviour.
	lastWins bool

	// pending buffers client data awaiting a server acknowledgment
	// when the §8 TrustDataAfterServerACK hardening is on.
	pending []pendingSeg

	// respStream reassembles server→client data when response
	// censorship is enabled, from the first server data on (respOn);
	// a reused TCB keeps the last trial's for its storage.
	respStream *stream
	respOn     bool
}

// pendingSeg is one buffered client segment (hardened mode).
type pendingSeg struct {
	seq packet.Seq
	pkt *packet.Packet
}

// maxPendingSegs bounds the hardened-mode buffer; the paper's point is
// precisely that this state is expensive for the censor.
const maxPendingSegs = 64

// fromClient reports whether pkt travels from the TCB's notion of the
// client toward its notion of the server.
func (t *tcb) fromClient(pkt *packet.Packet) bool {
	return pkt.IP.Src == t.client && pkt.TCP.SrcPort == t.cport
}

// stream reassembles the client→server byte stream for the detection
// engine. Bytes that have been scanned are immutable (the DPI engine
// consumed them); unscanned out-of-order bytes are resolved by the
// device's overlap policy. Only those are buffered, and their coverage
// is kept as ranges: an in-order segment with nothing pending goes
// straight to the scanner, and no step costs a pass per byte. Its
// buffers grow through the trial's simulator (Simulator.Grow).
type stream struct {
	sim     *netem.Simulator
	base    packet.Seq // sequence number of stream offset 0
	started bool
	scanned int // contiguous prefix already fed to the scanner
	window  int
	scanner dpi.StreamScanner

	// classify marks a stream the protocol classifiers read. keep
	// retains its scanned prefix in prefix for them (contiguous) until
	// they name the flow or can no longer name it (dropPrefix), or a
	// rebase starts it over.
	classify, keep bool
	prefix         []byte

	// pend buffers out-of-order bytes: pend[i] is stream offset
	// pbase+i. have lists the stream-offset ranges of pend that hold
	// unscanned data, sorted, disjoint and never adjacent; nothing is
	// pending when it is empty.
	pend  []byte
	pbase int
	have  []span
}

// span is the half-open stream-offset range [lo, hi).
type span struct{ lo, hi int }

// reset returns s, or a new stream when s is nil, empty and unstarted
// on sim, scanning with m: it keeps only the storage of the pending
// ranges, as the buffers it grew were lent by the simulator and taken
// back at its reset.
func (s *stream) reset(sim *netem.Simulator, window int, m *dpi.Matcher, classify bool) *stream {
	if s == nil {
		s = new(stream)
	}
	*s = stream{sim: sim, window: window, scanner: *m.NewStreamScanner(), classify: classify, keep: classify, have: s.have[:0]}
	return s
}

// rebase resets the stream to a new base sequence (TCB creation or
// resynchronization). Already-scanned bytes are discarded; the scanner
// keeps its automaton state so keywords spanning a resync boundary are
// still only found if genuinely contiguous — matching a DPI engine that
// processes the stream as it goes. Classification starts over on the
// new base, so a stream the classifiers have not named keeps its
// prefix again.
func (s *stream) rebase(seq packet.Seq) {
	s.base = seq
	s.started = true
	s.scanned = 0
	s.keep = s.classify
	s.prefix = packet.Reuse(s.prefix)
	s.have = s.have[:0]
	s.scanner.Reset()
}

// dropPrefix stops retaining the scanned prefix. Once the classifiers
// have named the flow, no classifier reads contiguous again; a flow
// they can no longer name from this base keeps it again after a
// rebase.
func (s *stream) dropPrefix(named bool) {
	s.classify = s.classify && !named
	s.keep = false
	s.prefix = nil
}

// accepts reports whether a segment at seq is within the reassembly
// window relative to the current expectations.
func (s *stream) accepts(seq packet.Seq, n int) bool {
	if !s.started {
		return false
	}
	d := seq.Diff(s.base)
	return d >= 0 && int(d)+n <= s.window
}

// insert places data at seq, honoring immutability of scanned bytes and
// the overlap policy for the rest, then returns any newly contiguous
// bytes as keyword matches from the detection scanner.
func (s *stream) insert(seq packet.Seq, data []byte, lastWins bool) []dpi.Match {
	if len(data) == 0 || !s.accepts(seq, len(data)) {
		return nil
	}
	lo := int(seq.Diff(s.base))
	hi := lo + len(data)
	if hi <= s.scanned {
		return nil // already consumed by the engine: first copy wins
	}
	if lo < s.scanned {
		data, lo = data[s.scanned-lo:], s.scanned
	}
	if len(s.have) == 0 {
		if lo == s.scanned {
			return s.feed(data)
		}
		s.pend, s.pbase = packet.Reuse(s.pend), s.scanned
	}
	if n := hi - s.pbase - len(s.pend); n > 0 {
		s.pend = s.sim.Grow(s.pend, n)[:hi-s.pbase]
	}
	// Write data wherever the policy lets it win: everywhere under
	// last-wins, only into the gaps between held ranges under
	// first-wins.
	at := lo
	if !lastWins {
		for _, h := range s.have {
			if h.lo >= hi {
				break
			}
			if h.lo > at {
				copy(s.pend[at-s.pbase:h.lo-s.pbase], data[at-lo:])
			}
			at = max(at, h.hi)
		}
	}
	if at < hi {
		copy(s.pend[at-s.pbase:], data[at-lo:])
	}
	s.hold(span{lo, hi})
	// Ranges never touch, so at most the first one joins the prefix.
	if h := s.have[0]; h.lo == s.scanned {
		s.have = slices.Delete(s.have, 0, 1)
		return s.feed(s.pend[h.lo-s.pbase : h.hi-s.pbase])
	}
	return nil
}

// hold merges r into have, absorbing every range it overlaps or
// touches.
func (s *stream) hold(r span) {
	i := 0
	for i < len(s.have) && s.have[i].hi < r.lo {
		i++
	}
	j := i
	for ; j < len(s.have) && s.have[j].lo <= r.hi; j++ {
		r = span{min(r.lo, s.have[j].lo), max(r.hi, s.have[j].hi)}
	}
	s.have = slices.Replace(s.have, i, j, r)
}

// feed hands the next contiguous bytes to the scanner.
func (s *stream) feed(chunk []byte) []dpi.Match {
	s.scanned += len(chunk)
	if s.keep {
		s.prefix = append(s.sim.Grow(s.prefix, len(chunk)), chunk...)
	}
	return s.scanner.Feed(chunk)
}

// contiguous returns the scanned prefix of the stream (used by the
// protocol classifiers); it is empty once the prefix is dropped. The
// view is valid until the stream's next rebase and no longer than the
// simulator's next Reset.
func (s *stream) contiguous() []byte { return s.prefix }

// nextSeq returns the sequence number just past the scanned prefix.
func (s *stream) nextSeq() packet.Seq { return s.base.Add(s.scanned) }
