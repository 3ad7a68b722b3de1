package packet

import (
	"encoding/binary"
	"fmt"
)

// ICMP types used in this codebase.
const (
	ICMPEchoReply    = 0
	ICMPUnreachable  = 3
	ICMPEcho         = 8
	ICMPTimeExceeded = 11
)

// ICMPMessage is a minimal ICMP message: type, code, and the body that
// follows the 4-byte rest-of-header (which we keep raw in Rest). For
// Time-Exceeded and Unreachable, Body carries the original IP header
// plus the first 8 bytes of its payload, per RFC 792 — enough for a
// tcptraceroute-style hop-count measurement to match probes to replies.
type ICMPMessage struct {
	Type     uint8
	Code     uint8
	Checksum uint16
	Rest     [4]byte
	Body     []byte
}

// SerializeTo appends the encoded message to buf.
func (m *ICMPMessage) SerializeTo(buf []byte, opts SerializeOptions) []byte {
	start := len(buf)
	out := append(buf, make([]byte, 8)...)
	out = append(out, m.Body...)
	b := out[start:]
	b[0] = m.Type
	b[1] = m.Code
	copy(b[4:8], m.Rest[:])
	if opts.ComputeChecksums {
		binary.BigEndian.PutUint16(b[2:], 0)
		m.Checksum = Checksum(b, 0)
	}
	binary.BigEndian.PutUint16(b[2:], m.Checksum)
	return out
}

// computeChecksum returns the correct checksum for the current message
// contents, arithmetically.
func (m *ICMPMessage) computeChecksum() uint16 {
	sum := uint32(m.Type)<<8 | uint32(m.Code)
	sum += uint32(m.Rest[0])<<8 | uint32(m.Rest[1])
	sum += uint32(m.Rest[2])<<8 | uint32(m.Rest[3])
	return foldChecksum(sum + regionSum(m.Body))
}

// DecodeFromBytes parses an ICMP message, copying the body into m's
// retained Body slice.
func (m *ICMPMessage) DecodeFromBytes(data []byte) error {
	if len(data) < 8 {
		return fmt.Errorf("icmp: truncated message: %d bytes", len(data))
	}
	m.Type = data[0]
	m.Code = data[1]
	m.Checksum = binary.BigEndian.Uint16(data[2:])
	copy(m.Rest[:], data[4:8])
	m.Body = append(m.Body[:0], data[8:]...)
	return nil
}

// TimeExceeded builds the ICMP Time-Exceeded message a router emits when
// it drops orig for TTL expiry. The body quotes orig's IP header and the
// first 8 bytes of its L4 payload.
func TimeExceeded(orig *Packet) *ICMPMessage {
	quoted := orig.Serialize(SerializeOptions{ComputeChecksums: true, FixLengths: true})
	hl := orig.IP.HeaderLen()
	end := hl + 8
	if end > len(quoted) {
		end = len(quoted)
	}
	return &ICMPMessage{Type: ICMPTimeExceeded, Body: append([]byte(nil), quoted[:end]...)}
}

// QuotedTCP extracts the quoted original IPv4+TCP ports/seq from a
// Time-Exceeded or Unreachable body, when the quoted datagram was TCP.
func (m *ICMPMessage) QuotedTCP() (ip IPv4Header, srcPort, dstPort uint16, seq Seq, ok bool) {
	n, err := ip.DecodeFromBytes(m.Body)
	if err != nil || ip.Protocol != ProtoTCP || len(m.Body) < n+8 {
		return ip, 0, 0, 0, false
	}
	b := m.Body[n:]
	return ip, binary.BigEndian.Uint16(b[0:]), binary.BigEndian.Uint16(b[2:]), Seq(binary.BigEndian.Uint32(b[4:])), true
}

// Clone returns a deep copy of the message.
func (m *ICMPMessage) Clone() *ICMPMessage {
	c := *m
	c.Body = append([]byte(nil), m.Body...)
	return &c
}
