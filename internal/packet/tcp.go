package packet

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << iota
	FlagSYN
	FlagRST
	FlagPSH
	FlagACK
	FlagURG
)

// TCP option kinds used in this codebase.
const (
	OptEnd           = 0
	OptNOP           = 1
	OptMSS           = 2
	OptWindowScale   = 3
	OptSACKPermitted = 4
	OptTimestamps    = 8
	OptMD5           = 19 // RFC 2385 TCP MD5 signature option
)

// TCPHeaderLen is the length of a TCP header without options.
const TCPHeaderLen = 20

// TCPOption is a single TCP option as it appears on the wire. NOP and
// End-of-Options carry no data and no length byte.
type TCPOption struct {
	Kind byte
	Data []byte
}

// TCPHeader is a TCP header plus options. DataOffset is implicit (from
// options) unless opts.FixLengths is false and RawDataOffset is nonzero,
// which allows crafting the "TCP header length < 20" discrepancy of
// Table 3.
type TCPHeader struct {
	SrcPort, DstPort uint16
	Seq              Seq
	Ack              Seq
	Flags            uint8
	Window           uint16
	Checksum         uint16 // filled by SerializeTo when opts.ComputeChecksums
	Urgent           uint16
	Options          []TCPOption
	// RawDataOffset, when nonzero and FixLengths is false, overrides the
	// data-offset field (in 32-bit words) emitted on the wire.
	RawDataOffset uint8
}

// optionsLen returns the encoded length of the options, padded to a
// 4-byte multiple.
func (h *TCPHeader) optionsLen() int {
	n := 0
	for _, o := range h.Options {
		switch o.Kind {
		case OptEnd, OptNOP:
			n++
		default:
			n += 2 + len(o.Data)
		}
	}
	return (n + 3) &^ 3
}

// HeaderLen returns the encoded header length in bytes.
func (h *TCPHeader) HeaderLen() int { return TCPHeaderLen + h.optionsLen() }

// HasFlag reports whether all bits in f are set.
func (h *TCPHeader) HasFlag(f uint8) bool { return h.Flags&f == f }

// FlagsOnly reports whether the flag set is exactly f.
func (h *TCPHeader) FlagsOnly(f uint8) bool { return h.Flags == f }

// FindOption returns the first option with the given kind, if present.
func (h *TCPHeader) FindOption(kind byte) (TCPOption, bool) {
	for _, o := range h.Options {
		if o.Kind == kind {
			return o, true
		}
	}
	return TCPOption{}, false
}

// Timestamps returns the TSval/TSecr pair from the timestamps option.
func (h *TCPHeader) Timestamps() (tsval, tsecr uint32, ok bool) {
	o, found := h.FindOption(OptTimestamps)
	if !found || len(o.Data) != 8 {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(o.Data), binary.BigEndian.Uint32(o.Data[4:]), true
}

// HasMD5 reports whether an RFC 2385 MD5 signature option is present.
func (h *TCPHeader) HasMD5() bool {
	_, ok := h.FindOption(OptMD5)
	return ok
}

// TimestampOption builds an RFC 7323 timestamps option.
func TimestampOption(tsval, tsecr uint32) TCPOption {
	d := make([]byte, 8)
	binary.BigEndian.PutUint32(d, tsval)
	binary.BigEndian.PutUint32(d[4:], tsecr)
	return TCPOption{Kind: OptTimestamps, Data: d}
}

// MD5Option builds an RFC 2385 MD5 signature option. The digest need not
// be a valid signature — an unsolicited MD5 option is ignored by servers
// that never negotiated TCP-MD5, which is exactly what makes it a good
// insertion packet (Table 3).
func MD5Option(digest [16]byte) TCPOption {
	return TCPOption{Kind: OptMD5, Data: append([]byte(nil), digest[:]...)}
}

// SerializeTo appends the encoded header and payload to buf. src/dst are
// the IPv4 endpoints for the pseudo-header checksum.
func (h *TCPHeader) SerializeTo(buf []byte, src, dst Addr, payload []byte, opts SerializeOptions) []byte {
	hl := h.HeaderLen()
	start := len(buf)
	out := append(buf, make([]byte, hl)...)
	out = append(out, payload...)
	b := out[start:]
	binary.BigEndian.PutUint16(b[0:], h.SrcPort)
	binary.BigEndian.PutUint16(b[2:], h.DstPort)
	binary.BigEndian.PutUint32(b[4:], uint32(h.Seq))
	binary.BigEndian.PutUint32(b[8:], uint32(h.Ack))
	off := uint8(hl / 4)
	if !opts.FixLengths && h.RawDataOffset != 0 {
		off = h.RawDataOffset
	}
	b[12] = off << 4
	b[13] = h.Flags
	binary.BigEndian.PutUint16(b[14:], h.Window)
	binary.BigEndian.PutUint16(b[18:], h.Urgent)
	// Options.
	p := 20
	for _, o := range h.Options {
		switch o.Kind {
		case OptEnd, OptNOP:
			b[p] = o.Kind
			p++
		default:
			b[p] = o.Kind
			b[p+1] = byte(2 + len(o.Data))
			copy(b[p+2:], o.Data)
			p += 2 + len(o.Data)
		}
	}
	// Padding bytes are already zero (End-of-Options).
	if opts.ComputeChecksums {
		binary.BigEndian.PutUint16(b[16:], 0)
		h.Checksum = Checksum(b, pseudoHeaderSum(src, dst, ProtoTCP, len(b)))
	}
	binary.BigEndian.PutUint16(b[16:], h.Checksum)
	return out
}

// decode parses a TCP header from data, returning the header length
// consumed; the payload is data[consumed:]. The options decode into
// h's retained Options slice, and their data into one copy of the
// options region in owner's option scratch, which the options' Data
// slices share: a pooled owner decodes without allocating, a heap one
// into a single new region.
func (h *TCPHeader) decode(data []byte, owner *Packet) (int, error) {
	if len(data) < TCPHeaderLen {
		return 0, fmt.Errorf("tcp: truncated header: %d bytes", len(data))
	}
	h.SrcPort = binary.BigEndian.Uint16(data[0:])
	h.DstPort = binary.BigEndian.Uint16(data[2:])
	h.Seq = Seq(binary.BigEndian.Uint32(data[4:]))
	h.Ack = Seq(binary.BigEndian.Uint32(data[8:]))
	hl := int(data[12]>>4) * 4
	h.RawDataOffset = data[12] >> 4
	h.Flags = data[13]
	h.Window = binary.BigEndian.Uint16(data[14:])
	h.Checksum = binary.BigEndian.Uint16(data[16:])
	h.Urgent = binary.BigEndian.Uint16(data[18:])
	h.Options = h.Options[:0]
	if hl < TCPHeaderLen {
		return 0, fmt.Errorf("tcp: header length %d < 20", hl)
	}
	if len(data) < hl {
		return 0, fmt.Errorf("tcp: truncated options: have %d want %d", len(data), hl)
	}
	if hl == TCPHeaderLen {
		return hl, nil
	}
	// At most 40 option bytes, so at most 40 options: decode them on
	// the stack, then size the retained slice once.
	var opts [40]TCPOption
	n := 0
	region := owner.optScratch(hl - TCPHeaderLen)
	copy(region, data[TCPHeaderLen:hl])
	p := 0
scan:
	for p < len(region) {
		switch kind := region[p]; kind {
		case OptEnd:
			break scan
		case OptNOP:
			opts[n] = TCPOption{Kind: OptNOP}
			p++
		default:
			if p+1 >= len(region) {
				return 0, fmt.Errorf("tcp: option %d truncated", kind)
			}
			olen := int(region[p+1])
			if olen < 2 || p+olen > len(region) {
				return 0, fmt.Errorf("tcp: option %d bad length %d", kind, olen)
			}
			var d []byte
			if olen > 2 {
				d = region[p+2 : p+olen : p+olen]
			}
			opts[n] = TCPOption{Kind: kind, Data: d}
			p += olen
		}
		n++
	}
	if cap(h.Options) < n {
		h.Options = make([]TCPOption, 0, n)
	}
	h.Options = append(h.Options, opts[:n]...)
	return hl, nil
}

// VerifyChecksum reports whether the checksum field is correct for the
// current header contents and payload, given the IPv4 endpoints.
func (h *TCPHeader) VerifyChecksum(src, dst Addr, payload []byte) bool {
	want := h.ComputeChecksum(src, dst, payload)
	return h.Checksum == want
}

// ComputeChecksum returns the correct checksum for the current header
// contents and payload without modifying the header. It sums the fields
// arithmetically — this runs per packet per checksum-validating
// middlebox, so it must not serialize.
func (h *TCPHeader) ComputeChecksum(src, dst Addr, payload []byte) uint16 {
	return h.checksumOver(src, dst, payload, false)
}

// checksumFixed is ComputeChecksum under FixLengths semantics: the
// data-offset field is taken as the honest header length even when
// RawDataOffset lies. Finalize uses it; it must match what SerializeTo
// with FixLengths emits.
func (h *TCPHeader) checksumFixed(src, dst Addr, payload []byte) uint16 {
	return h.checksumOver(src, dst, payload, true)
}

func (h *TCPHeader) checksumOver(src, dst Addr, payload []byte, fixLengths bool) uint16 {
	hl := h.HeaderLen()
	sum := pseudoHeaderSum(src, dst, ProtoTCP, hl+len(payload))
	sum += uint32(h.SrcPort) + uint32(h.DstPort)
	sum += uint32(h.Seq)>>16 + uint32(h.Seq)&0xffff
	sum += uint32(h.Ack)>>16 + uint32(h.Ack)&0xffff
	off := uint8(hl / 4)
	if !fixLengths && h.RawDataOffset != 0 {
		off = h.RawDataOffset
	}
	sum += uint32(off<<4)<<8 | uint32(h.Flags)
	sum += uint32(h.Window) + uint32(h.Urgent)
	// Options, byte by byte with running parity: an odd-length option
	// shifts the alignment of everything after it, exactly as on the
	// wire. Trailing padding is zero and contributes nothing.
	shift := uint(8)
	for _, o := range h.Options {
		sum += uint32(o.Kind) << shift
		shift ^= 8
		if o.Kind == OptEnd || o.Kind == OptNOP {
			continue
		}
		sum += uint32(byte(2+len(o.Data))) << shift
		shift ^= 8
		for _, b := range o.Data {
			sum += uint32(b) << shift
			shift ^= 8
		}
	}
	// The payload begins at offset hl, a 4-byte multiple, so its words
	// align independently of the options region.
	return foldChecksum(sum + regionSum(payload))
}

// Clone returns a deep copy of the header.
func (h *TCPHeader) Clone() *TCPHeader {
	c := *h
	c.Options = make([]TCPOption, len(h.Options))
	for i, o := range h.Options {
		c.Options[i] = TCPOption{Kind: o.Kind, Data: append([]byte(nil), o.Data...)}
	}
	return &c
}

// FlagString renders a flag set like "SYN|ACK", or "none" for a
// flagless packet.
func FlagString(f uint8) string {
	if f == 0 {
		return "none"
	}
	names := []struct {
		bit  uint8
		name string
	}{
		{FlagSYN, "SYN"}, {FlagFIN, "FIN"}, {FlagRST, "RST"},
		{FlagPSH, "PSH"}, {FlagACK, "ACK"}, {FlagURG, "URG"},
	}
	var parts []string
	for _, n := range names {
		if f&n.bit != 0 {
			parts = append(parts, n.name)
		}
	}
	return strings.Join(parts, "|")
}
