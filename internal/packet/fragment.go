package packet

import (
	"fmt"
	"slices"
	"time"
)

// Fragment splits a finalized datagram into IP fragments whose L4
// payloads are at most mtu-IPHeaderLen bytes (mtu counts the IP header).
// The first fragment carries the L4 header; later fragments carry raw
// bytes. mtu must allow at least 8 bytes of fragment data, and fragment
// data lengths other than the last are rounded down to 8-byte multiples,
// as required by the offset encoding.
func Fragment(p *Packet, mtu int) ([]*Packet, error) {
	if p.IP.IsFragment() {
		return nil, fmt.Errorf("fragment: packet is already a fragment")
	}
	if p.IP.Flags&IPFlagDontFragment != 0 {
		return nil, fmt.Errorf("fragment: DF set")
	}
	wire := p.Serialize(SerializeOptions{ComputeChecksums: true, FixLengths: true})
	hl := p.IP.HeaderLen()
	l4 := wire[hl:]
	maxData := (mtu - hl) &^ 7
	if maxData < 8 {
		return nil, fmt.Errorf("fragment: mtu %d too small", mtu)
	}
	if len(l4) <= maxData {
		return []*Packet{p.Clone()}, nil
	}
	var frags []*Packet
	for off := 0; off < len(l4); off += maxData {
		end := off + maxData
		more := true
		if end >= len(l4) {
			end = len(l4)
			more = false
		}
		f := &Packet{IP: p.IP.Clone()}
		f.IP.FragOffset = uint16(off / 8)
		if more {
			f.IP.Flags |= IPFlagMoreFragments
		} else {
			f.IP.Flags &^= IPFlagMoreFragments
		}
		chunk := append([]byte(nil), l4[off:end]...)
		if off == 0 {
			// Re-parse the first chunk so the fragment has a typed L4
			// header (it is what routers and the GFW look at).
			f.IP.SetLengths(len(chunk))
			tmp := f.IP.SerializeTo(nil, len(chunk), SerializeOptions{ComputeChecksums: true, FixLengths: true})
			tmp = append(tmp, chunk...)
			parsed, err := Parse(tmp)
			if err != nil {
				// L4 header split across fragments: keep raw bytes.
				f.Payload = chunk
			} else {
				parsed.IP = f.IP.Clone()
				f = parsed
			}
		} else {
			f.Payload = chunk
		}
		f.IP.SetLengths(len(chunk))
		f.IP.UpdateChecksum()
		frags = append(frags, f)
	}
	return frags, nil
}

// fragKey identifies a fragment series per RFC 791.
type fragKey struct {
	src, dst Addr
	proto    uint8
	id       uint16
}

type fragPiece struct {
	off  int // bytes
	data []byte
	last bool
}

type fragSeries struct {
	pieces []fragPiece
	// policy FirstWins retains the first copy of overlapping bytes;
	// otherwise the latest copy wins.
	haveLast bool
	totalLen int
	// born is the virtual time the series was opened (AddAt); the
	// expiry sweep evicts series older than the reassembler's TTL.
	born time.Duration
}

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

	series  map[fragKey]*fragSeries
	order   []seriesRef // series in creation order; may hold stale refs
	evicted uint64
	lastNow time.Duration
	spans   [][2]int // complete's scratch: a series' piece spans
}

// seriesRef pins an order entry to a specific series incarnation, so a
// key reused after completion is not confused with its predecessor.
type seriesRef struct {
	key fragKey
	s   *fragSeries
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
	return &Reassembler{
		Policy:    policy,
		TTL:       DefaultFragTTL,
		MaxSeries: DefaultFragMaxSeries,
		series:    make(map[fragKey]*fragSeries),
	}
}

// Add offers a packet to the reassembler with no clock advance: expiry
// still applies, measured against the latest time AddAt has seen.
func (r *Reassembler) Add(p *Packet) (*Packet, error) {
	return r.AddAt(p, r.lastNow)
}

// AddAt offers a packet to the reassembler at virtual time now. Whole
// datagrams are returned unchanged. Fragments are buffered; when a
// series completes, the reassembled datagram is parsed and returned.
// Otherwise AddAt returns nil. Expired and over-cap series are evicted
// first (see TakeEvicted).
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
		s = &fragSeries{born: r.lastNow}
		r.series[key] = s
		r.order = append(r.order, seriesRef{key: key, s: s})
		for r.MaxSeries > 0 && len(r.series) > r.MaxSeries {
			r.evictOldest()
		}
	}
	var data []byte
	if p.IP.FragOffset == 0 {
		// Emit the first fragment's stored bytes verbatim: its L4
		// checksum is a piece of the original whole segment's checksum
		// and must not be recomputed over the fragment alone.
		data = p.Serialize(SerializeOptions{})[p.IP.HeaderLen():]
	} else {
		data = append([]byte(nil), p.Payload...)
	}
	piece := fragPiece{off: int(p.IP.FragOffset) * 8, data: data, last: !p.IP.MoreFragments()}
	if piece.last {
		s.haveLast = true
		s.totalLen = piece.off + len(piece.data)
	}
	s.pieces = append(s.pieces, piece)
	if !s.haveLast || !r.complete(s) {
		return nil, nil
	}
	delete(r.series, key)
	hdr := p.IP.Clone()
	hdr.Flags &^= IPFlagMoreFragments
	hdr.FragOffset = 0
	hdr.SetLengths(s.totalLen)
	wire := make([]byte, 0, hdr.HeaderLen()+s.totalLen)
	wire = hdr.SerializeTo(wire, s.totalLen, SerializeOptions{ComputeChecksums: true, FixLengths: true})
	return Parse(s.assemble(wire, r.Policy))
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
			copy(buf[pc.off:], pc.data)
		}
	}
	return dst
}

// complete reports whether the pieces' spans cover [0, totalLen) of
// series s, sorting them by offset in the reassembler's scratch.
func (r *Reassembler) complete(s *fragSeries) bool {
	r.spans = r.spans[:0]
	for _, pc := range s.pieces {
		r.spans = append(r.spans, [2]int{pc.off, pc.off + len(pc.data)})
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
	for len(r.order) > 0 {
		ref := r.order[0]
		if r.series[ref.key] != ref.s {
			// Completed or already evicted; drop the stale entry.
			r.order = r.order[1:]
			continue
		}
		if r.TTL > 0 && now-ref.s.born >= r.TTL {
			delete(r.series, ref.key)
			r.order = r.order[1:]
			r.evicted++
			continue
		}
		break
	}
	if len(r.order) == 0 {
		r.order = nil
	}
}

// evictOldest drops the oldest live series (MaxSeries pressure).
func (r *Reassembler) evictOldest() {
	for len(r.order) > 0 {
		ref := r.order[0]
		r.order = r.order[1:]
		if r.series[ref.key] == ref.s {
			delete(r.series, ref.key)
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
