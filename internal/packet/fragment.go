package packet

import (
	"slices"
	"time"
)

// Fragment splits datagram p into heap IP fragments whose L4 payloads
// are at most mtu-IPHeaderLen bytes: Pool.Fragment on a nil pool.
func Fragment(p *Packet, mtu int) ([]*Packet, error) {
	return (*Pool)(nil).Fragment(nil, p, mtu)
}

// fragKey identifies a fragment series per RFC 791.
type fragKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

// fragPiece is one fragment's bytes within its series: buf[start:end]
// of the series holds the datagram bytes from off on.
type fragPiece struct {
	off        int // bytes
	start, end int
}

type fragSeries struct {
	// buf holds every piece's bytes in arrival order, each copied in
	// once; a finished series' buffer serves a later series.
	buf      []byte
	pieces   []fragPiece
	haveLast bool
	totalLen int
	// born is the virtual time the series was opened (AddAt); the
	// expiry sweep evicts series older than the reassembler's TTL.
	born time.Duration
	// gen tells this incarnation of the series from the earlier and
	// later ones its storage serves.
	gen uint64
}

// add records the bytes from start to the end of buf as a piece at
// byte offset off of the datagram, the series' last piece when last is
// set.
func (s *fragSeries) add(off, start int, last bool) {
	if last {
		s.haveLast = true
		s.totalLen = off + len(s.buf) - start
	}
	s.pieces = append(s.pieces, fragPiece{off: off, start: start, end: len(s.buf)})
}

// data returns a piece's bytes.
func (s *fragSeries) data(pc fragPiece) []byte { return s.buf[pc.start:pc.end] }

// OverlapPolicy selects which copy of overlapping fragment/segment data
// a reassembler keeps. The paper (§3.2, citing Khattak et al.) reports
// the GFW prefers the former copy for IP fragments and the latter for
// TCP segments, while end hosts vary.
type OverlapPolicy int

const (
	// FirstWins keeps the data that arrived first (GFW IP-fragment
	// behaviour; also BSD-style segment reassembly).
	FirstWins OverlapPolicy = iota
	// LastWins lets newly arrived data overwrite (GFW TCP-segment
	// behaviour).
	LastWins
)

// Reassembler reassembles IP fragments into whole datagrams. Its
// overlap policy is configurable because the divergence between
// implementations is exactly what the evasion strategies exploit.
//
// AddAt only reads the fragments it is offered: it copies each one's
// bytes once into its series' buffer, which later series reuse once
// the series completes or is evicted, and decodes a finished datagram
// into a packet from the pool of the fragment that completed it. In
// steady state, reassembly allocates nothing.
//
// Incomplete series do not linger forever: AddAt evicts series older
// than TTL (virtual time) and, when MaxSeries is exceeded, the oldest
// series — both real-implementation behaviours, and both necessary to
// keep a long campaign's memory bounded against deliberately
// unfinished fragment trains (the §3.2 evasions send plenty).
type Reassembler struct {
	Policy OverlapPolicy
	// TTL is how long an incomplete series may wait for its missing
	// fragments; MaxSeries caps concurrently open series. Zero disables
	// the corresponding limit. NewReassembler sets both defaults.
	TTL       time.Duration
	MaxSeries int

	series map[fragKey]*fragSeries
	// order[head:] lists the series in creation order; entries of
	// series since completed or evicted are stale and skipped.
	order   []seriesRef
	head    int
	free    []*fragSeries // finished series whose storage is reused
	gens    uint64
	evicted uint64
	lastNow time.Duration
	spans   [][2]int // complete's scratch: a series' piece spans
	wire    []byte   // the finished datagram's wire bytes
	ipOpts  []byte   // its IP options
}

// seriesRef pins an order entry to a specific series incarnation, so a
// key reused after completion is not confused with its predecessor.
type seriesRef struct {
	key fragKey
	gen uint64
}

// Default reassembly limits: Linux uses 30s (ip_frag_time) and bounds
// reassembly memory; 256 open series is far beyond anything the
// simulated evasions produce in flight.
const (
	DefaultFragTTL       = 30 * time.Second
	DefaultFragMaxSeries = 256
)

// NewReassembler returns a reassembler with the given overlap policy
// and default expiry limits.
func NewReassembler(policy OverlapPolicy) *Reassembler {
	r := new(Reassembler)
	r.Reset(policy)
	return r
}

// Reset empties r as NewReassembler(policy) builds it, dropping every
// open series and keeping their storage for the series to come. Reset
// on a zero Reassembler is NewReassembler.
func (r *Reassembler) Reset(policy OverlapPolicy) {
	for key, s := range r.series {
		r.drop(key, s)
	}
	clear(r.order)
	*r = Reassembler{
		Policy: policy, TTL: DefaultFragTTL, MaxSeries: DefaultFragMaxSeries,
		series: r.series, order: r.order[:0], free: r.free, gens: r.gens,
		spans: r.spans, wire: r.wire, ipOpts: r.ipOpts,
	}
}

// Add offers a packet to the reassembler with no clock advance: expiry
// still applies, measured against the latest time AddAt has seen.
func (r *Reassembler) Add(p *Packet) (*Packet, error) {
	return r.AddAt(p, r.lastNow)
}

// AddAt offers a packet to the reassembler at virtual time now, without
// modifying it or keeping a reference to it. Whole datagrams are
// returned unchanged. Fragments are buffered; when a series completes,
// the reassembled datagram is decoded into a packet from the pool of
// the fragment that completed it (the heap for a heap fragment) and
// returned; whoever receives it owns it and releases it. Otherwise
// AddAt returns nil. Expired and over-cap series
// are evicted first (see TakeEvicted).
func (r *Reassembler) AddAt(p *Packet, now time.Duration) (*Packet, error) {
	if now > r.lastNow {
		r.lastNow = now
	}
	r.expire(r.lastNow)
	if !p.IP.IsFragment() {
		return p, nil
	}
	key := fragKey{src: p.IP.Src, dst: p.IP.Dst, proto: p.IP.Protocol, id: p.IP.ID}
	s := r.series[key]
	if s == nil {
		s = r.open(key)
		for r.MaxSeries > 0 && len(r.series) > r.MaxSeries {
			r.evictOldest()
		}
	}
	off, start := int(p.IP.FragOffset)*8, len(s.buf)
	if p.IP.FragOffset == 0 {
		// Keep the first fragment's stored bytes verbatim: its L4
		// checksum is a piece of the original whole segment's checksum
		// and must not be recomputed over the fragment alone.
		s.buf = p.appendL4(s.buf, SerializeOptions{})
	} else {
		s.buf = append(s.buf, p.Payload...)
	}
	s.add(off, start, !p.IP.MoreFragments())
	if !s.haveLast || !r.complete(s) {
		return nil, nil
	}
	hdr := p.IP
	r.ipOpts = append(r.ipOpts[:0], p.IP.Options...)
	hdr.Options = r.ipOpts
	hdr.Flags &^= IPFlagMoreFragments
	hdr.FragOffset = 0
	wire := hdr.SerializeTo(r.wire[:0], s.totalLen, SerializeOptions{ComputeChecksums: true, FixLengths: true})
	r.wire = s.assemble(wire, r.Policy)
	r.drop(key, s)
	return p.pool.Parse(r.wire)
}

// open starts a series for key, on the storage of a finished one when
// there is one.
func (r *Reassembler) open(key fragKey) *fragSeries {
	var s *fragSeries
	if n := len(r.free); n > 0 {
		s = r.free[n-1]
		r.free = r.free[:n-1]
	} else {
		s = &fragSeries{}
	}
	r.gens++
	s.born, s.gen = r.lastNow, r.gens
	if r.series == nil {
		r.series = make(map[fragKey]*fragSeries)
	}
	r.series[key] = s
	if r.head > 0 && len(r.order) == cap(r.order) {
		// Full to the end of its array: move the live entries to the
		// front instead of growing.
		n := copy(r.order, r.order[r.head:])
		r.order, r.head = r.order[:n], 0
	}
	r.order = append(r.order, seriesRef{key: key, gen: s.gen})
	return s
}

// drop forgets series s of key, keeping its storage for a later series.
func (r *Reassembler) drop(key fragKey, s *fragSeries) {
	delete(r.series, key)
	s.buf, s.pieces = s.buf[:0], s.pieces[:0]
	s.haveLast, s.totalLen = false, 0
	r.free = append(r.free, s)
}

// live returns the series ref names if it is still open.
func (r *Reassembler) live(ref seriesRef) *fragSeries {
	if s := r.series[ref.key]; s != nil && s.gen == ref.gen {
		return s
	}
	return nil
}

// assemble appends the byte range [0, totalLen) of a complete series to
// dst. Pieces are copied in policy order, so the winning copy of an
// overlapped byte is written last: arrival order for LastWins, reverse
// arrival order for FirstWins.
func (s *fragSeries) assemble(dst []byte, policy OverlapPolicy) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, s.totalLen)...)
	buf := dst[start:]
	n := len(s.pieces)
	for i := range s.pieces {
		pc := s.pieces[i]
		if policy == FirstWins {
			pc = s.pieces[n-1-i]
		}
		if pc.off < len(buf) {
			copy(buf[pc.off:], s.data(pc))
		}
	}
	return dst
}

// complete reports whether the pieces' spans cover [0, totalLen) of
// series s, sorting them by offset in the reassembler's scratch.
func (r *Reassembler) complete(s *fragSeries) bool {
	r.spans = r.spans[:0]
	for _, pc := range s.pieces {
		r.spans = append(r.spans, [2]int{pc.off, pc.off + pc.end - pc.start})
	}
	slices.SortFunc(r.spans, func(a, b [2]int) int { return a[0] - b[0] })
	covered := 0
	for _, sp := range r.spans {
		if sp[0] > covered {
			break
		}
		covered = max(covered, sp[1])
	}
	return covered >= s.totalLen
}

// expire evicts series whose TTL has elapsed at virtual time now,
// draining stale order entries (completed series) as it goes.
func (r *Reassembler) expire(now time.Duration) {
	for r.head < len(r.order) {
		ref := r.order[r.head]
		if s := r.live(ref); s != nil {
			if r.TTL <= 0 || now-s.born < r.TTL {
				break
			}
			r.drop(ref.key, s)
			r.evicted++
		}
		r.head++
	}
	if r.head == len(r.order) {
		r.order, r.head = r.order[:0], 0
	}
}

// evictOldest drops the oldest live series (MaxSeries pressure).
func (r *Reassembler) evictOldest() {
	for r.head < len(r.order) {
		ref := r.order[r.head]
		r.head++
		if s := r.live(ref); s != nil {
			r.drop(ref.key, s)
			r.evicted++
			return
		}
	}
}

// TakeEvicted returns the number of series evicted (TTL or cap) since
// the last call and resets the counter — the hook call sites use to
// feed an observability counter.
func (r *Reassembler) TakeEvicted() uint64 {
	n := r.evicted
	r.evicted = 0
	return n
}

// Pending returns the number of incomplete fragment series held.
func (r *Reassembler) Pending() int { return len(r.series) }
