package packet

import (
	"fmt"
)

// FourTuple identifies a TCP or UDP flow. Tuples compare with == and key
// maps directly.
type FourTuple struct {
	SrcAddr Addr
	SrcPort uint16
	DstAddr Addr
	DstPort uint16
}

// Reverse returns the tuple for the opposite direction.
func (t FourTuple) Reverse() FourTuple {
	return FourTuple{SrcAddr: t.DstAddr, SrcPort: t.DstPort, DstAddr: t.SrcAddr, DstPort: t.SrcPort}
}

// Canonical returns a direction-independent key: the tuple whose
// (addr, port) pair is lexically smaller comes first. Both directions of
// a connection map to the same canonical tuple.
func (t FourTuple) Canonical() FourTuple {
	if t.less() {
		return t
	}
	return t.Reverse()
}

func (t FourTuple) less() bool {
	for i := range t.SrcAddr {
		if t.SrcAddr[i] != t.DstAddr[i] {
			return t.SrcAddr[i] < t.DstAddr[i]
		}
	}
	return t.SrcPort < t.DstPort
}

// String renders "src:port>dst:port".
func (t FourTuple) String() string {
	return fmt.Sprintf("%v:%d>%v:%d", t.SrcAddr, t.SrcPort, t.DstAddr, t.DstPort)
}

// Packet is one IPv4 datagram in flight. Exactly one of TCP, UDP, ICMP
// is non-nil for a first fragment or whole datagram; all are nil for a
// non-first IP fragment, whose L4 bytes live in Payload.
type Packet struct {
	IP      IPv4Header
	TCP     *TCPHeader
	UDP     *UDPHeader
	ICMP    *ICMPMessage
	Payload []byte

	// BadTCPChecksum marks a packet whose TCP checksum was deliberately
	// corrupted after finalization. Receivers that validate checksums
	// honor the actual field; this flag exists only for trace labels.
	BadTCPChecksum bool

	// Lin is the causal-tracing lineage (see lineage.go): who crafted
	// the packet, which packet caused it, and its wire identity. The
	// fields are stamped unconditionally by the crafting layers — plain
	// integer/string-header stores, so the zero-allocation hot path is
	// untouched — and only read when tracing is enabled.
	Lin Lineage

	// hdrVerified marks an IP header a router found valid (see
	// RouterVerify). It lives on the packet, not the header, so copying
	// a header never copies it, and a fresh or cloned packet starts
	// without it.
	hdrVerified bool

	// Pooling support: the owning pool plus inline header and buffer
	// storage reused across incarnations (see pool.go). All zero for
	// ordinary heap packets, whose Use*/SetPayload calls then simply
	// borrow the embedded stores without recycling.
	pool       *Pool
	free       bool
	tcpStore   TCPHeader
	udpStore   UDPHeader
	icmpStore  ICMPMessage
	payloadBuf []byte
	optBuf     []byte
	ipOptBuf   []byte
}

// Tuple returns the flow four-tuple. For non-TCP/UDP packets the ports
// are zero.
func (p *Packet) Tuple() FourTuple {
	t := FourTuple{SrcAddr: p.IP.Src, DstAddr: p.IP.Dst}
	switch {
	case p.TCP != nil:
		t.SrcPort, t.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.UDP != nil:
		t.SrcPort, t.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	}
	return t
}

// SegLen returns the TCP sequence-space length this packet occupies:
// payload bytes plus one for SYN and one for FIN.
func (p *Packet) SegLen() int {
	if p.TCP == nil {
		return 0
	}
	n := len(p.Payload)
	if p.TCP.HasFlag(FlagSYN) {
		n++
	}
	if p.TCP.HasFlag(FlagFIN) {
		n++
	}
	return n
}

// EndSeq returns the sequence number just past this segment.
func (p *Packet) EndSeq() Seq {
	return p.TCP.Seq.Add(p.SegLen())
}

// RouterVerify reports whether the IP header checksum is valid, as a
// forwarding router checks it (RFC 1812 §5.2.2), and marks the packet
// when it is, so later routers skip the sum: DecrementTTL's incremental
// update keeps a valid checksum valid. Whatever may rewrite the header
// of a packet in flight must clear the mark first (ClearVerified), as
// the fabric does before a node's in-path processors run.
func (p *Packet) RouterVerify() bool {
	if !p.hdrVerified {
		p.hdrVerified = p.IP.VerifyChecksum()
	}
	return p.hdrVerified
}

// ClearVerified drops the mark RouterVerify leaves, so the next router
// verifies the header afresh.
func (p *Packet) ClearVerified() { p.hdrVerified = false }

// Serialize encodes the full datagram to wire bytes.
func (p *Packet) Serialize(opts SerializeOptions) []byte {
	var l4 []byte
	switch {
	case p.TCP != nil:
		l4 = p.TCP.SerializeTo(nil, p.IP.Src, p.IP.Dst, p.Payload, opts)
	case p.UDP != nil:
		l4 = p.UDP.SerializeTo(nil, p.IP.Src, p.IP.Dst, p.Payload, opts)
	case p.ICMP != nil:
		l4 = p.ICMP.SerializeTo(nil, opts)
	default:
		l4 = p.Payload
	}
	buf := p.IP.SerializeTo(nil, len(l4), opts)
	return append(buf, l4...)
}

// Finalize computes honest checksums and length fields in place. Call it
// after crafting a packet, then corrupt individual fields as needed. It
// works arithmetically from the fields (no serialization, no
// allocation) — this is the single hottest crafting call in a trial.
func (p *Packet) Finalize() *Packet {
	switch {
	case p.TCP != nil:
		p.TCP.Checksum = p.TCP.checksumFixed(p.IP.Src, p.IP.Dst, p.Payload)
		p.IP.SetLengths(p.TCP.HeaderLen() + len(p.Payload))
	case p.UDP != nil:
		p.UDP.Length = uint16(UDPHeaderLen + len(p.Payload))
		p.UDP.Checksum = p.UDP.computeChecksum(p.IP.Src, p.IP.Dst, p.Payload)
		p.IP.SetLengths(UDPHeaderLen + len(p.Payload))
	case p.ICMP != nil:
		p.ICMP.Checksum = p.ICMP.computeChecksum()
		p.IP.SetLengths(8 + len(p.ICMP.Body))
	default:
		p.IP.SetLengths(len(p.Payload))
	}
	p.IP.UpdateChecksum()
	return p
}

// Parse decodes a full IPv4 datagram from wire bytes into a heap
// packet: Pool.Parse on a nil pool.
func Parse(data []byte) (*Packet, error) {
	return (*Pool)(nil).Parse(data)
}

// decode fills the zeroed packet p from the datagram in data: its L4
// header in the packet's embedded store, its payload and option bytes
// copied into the packet's own buffers. Non-first fragments keep their
// L4 bytes in Payload with TCP/UDP/ICMP nil.
func (p *Packet) decode(data []byte) error {
	n, err := p.IP.DecodeFromBytes(data)
	if err != nil {
		return err
	}
	end := int(p.IP.TotalLength)
	if end > len(data) || end < n {
		end = len(data) // tolerate lying TotalLength; take what is there
	}
	l4 := data[n:end]
	if p.IP.FragOffset != 0 {
		p.SetPayload(l4)
		return nil
	}
	return p.decodeL4(l4)
}

// decodeL4 decodes the L4 header of protocol p.IP.Protocol from l4
// into p's embedded store and copies the rest into p's payload.
func (p *Packet) decodeL4(l4 []byte) error {
	switch p.IP.Protocol {
	case ProtoTCP:
		hn, err := p.UseTCP().decode(l4, p)
		if err != nil {
			return err
		}
		p.SetPayload(l4[hn:])
	case ProtoUDP:
		hn, err := p.UseUDP().DecodeFromBytes(l4)
		if err != nil {
			return err
		}
		p.SetPayload(l4[hn:])
	case ProtoICMP:
		if err := p.UseICMP().DecodeFromBytes(l4); err != nil {
			return err
		}
	default:
		p.SetPayload(l4)
	}
	return nil
}

// appendL4 appends p's L4 bytes — header and payload as serialized
// under opts — to buf, without touching p: it serializes copies of the
// headers, so computed checksums and lengths land in the copies.
func (p *Packet) appendL4(buf []byte, opts SerializeOptions) []byte {
	switch {
	case p.TCP != nil:
		h := *p.TCP
		return h.SerializeTo(buf, p.IP.Src, p.IP.Dst, p.Payload, opts)
	case p.UDP != nil:
		h := *p.UDP
		return h.SerializeTo(buf, p.IP.Src, p.IP.Dst, p.Payload, opts)
	case p.ICMP != nil:
		m := *p.ICMP
		return m.SerializeTo(buf, opts)
	default:
		return append(buf, p.Payload...)
	}
}

// Clone returns a deep copy, so middleboxes and the GFW tap can mutate
// their view without aliasing the in-flight packet.
func (p *Packet) Clone() *Packet {
	c := &Packet{IP: p.IP.Clone(), BadTCPChecksum: p.BadTCPChecksum, Lin: p.Lin.child()}
	if p.TCP != nil {
		c.TCP = p.TCP.Clone()
	}
	if p.UDP != nil {
		c.UDP = p.UDP.Clone()
	}
	if p.ICMP != nil {
		c.ICMP = p.ICMP.Clone()
	}
	c.Payload = append([]byte(nil), p.Payload...)
	return c
}

// String renders a one-line trace label.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil:
		s := fmt.Sprintf("TCP %v [%s] seq=%d ack=%d len=%d ttl=%d",
			p.Tuple(), FlagString(p.TCP.Flags), uint32(p.TCP.Seq), uint32(p.TCP.Ack), len(p.Payload), p.IP.TTL)
		if p.BadTCPChecksum {
			s += " badck"
		}
		if p.TCP.HasMD5() {
			s += " md5"
		}
		return s
	case p.UDP != nil:
		return fmt.Sprintf("UDP %v len=%d ttl=%d", p.Tuple(), len(p.Payload), p.IP.TTL)
	case p.ICMP != nil:
		return fmt.Sprintf("ICMP %v>%v type=%d code=%d", p.IP.Src, p.IP.Dst, p.ICMP.Type, p.ICMP.Code)
	default:
		return fmt.Sprintf("IP %v>%v proto=%d frag@%d len=%d", p.IP.Src, p.IP.Dst, p.IP.Protocol, int(p.IP.FragOffset)*8, len(p.Payload))
	}
}

// NewTCP builds a TCP packet with sensible defaults (TTL 64, window
// 29200) and finalizes it.
func NewTCP(src Addr, sport uint16, dst Addr, dport uint16, flags uint8, seq, ack Seq, payload []byte) *Packet {
	p := &Packet{
		IP: IPv4Header{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst},
		TCP: &TCPHeader{
			SrcPort: sport, DstPort: dport,
			Seq: seq, Ack: ack, Flags: flags, Window: 29200,
		},
		Payload: append([]byte(nil), payload...),
	}
	return p.Finalize()
}

// NewUDP builds a UDP packet with TTL 64 and finalizes it.
func NewUDP(src Addr, sport uint16, dst Addr, dport uint16, payload []byte) *Packet {
	p := &Packet{
		IP:      IPv4Header{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst},
		UDP:     &UDPHeader{SrcPort: sport, DstPort: dport},
		Payload: append([]byte(nil), payload...),
	}
	return p.Finalize()
}
