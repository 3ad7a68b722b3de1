package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"
)

// refParse is the heap parser Pool.Parse replaced, with the TCP option
// decoder it used: every option grown by append and its data copied
// into a slice of its own. FuzzFragmentPooled holds Pool.Parse to it.
func refParse(data []byte) (*Packet, error) {
	p := &Packet{}
	n, err := p.IP.DecodeFromBytes(data)
	if err != nil {
		return nil, err
	}
	end := int(p.IP.TotalLength)
	if end > len(data) || end < n {
		end = len(data)
	}
	l4 := data[n:end]
	if p.IP.FragOffset != 0 {
		p.Payload = append([]byte(nil), l4...)
		return p, nil
	}
	switch p.IP.Protocol {
	case ProtoTCP:
		p.TCP = &TCPHeader{}
		hn, err := refDecodeTCP(p.TCP, l4)
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), l4[hn:]...)
	case ProtoUDP:
		p.UDP = &UDPHeader{}
		hn, err := p.UDP.DecodeFromBytes(l4)
		if err != nil {
			return nil, err
		}
		p.Payload = append([]byte(nil), l4[hn:]...)
	case ProtoICMP:
		p.ICMP = &ICMPMessage{}
		if err := p.ICMP.DecodeFromBytes(l4); err != nil {
			return nil, err
		}
	default:
		p.Payload = append([]byte(nil), l4...)
	}
	return p, nil
}

// refDecodeTCP is the TCP header decoder refParse used.
func refDecodeTCP(h *TCPHeader, data []byte) (int, error) {
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
	h.Options = nil
	if hl < TCPHeaderLen {
		return 0, fmt.Errorf("tcp: header length %d < 20", hl)
	}
	if len(data) < hl {
		return 0, fmt.Errorf("tcp: truncated options: have %d want %d", len(data), hl)
	}
	p := TCPHeaderLen
opts:
	for p < hl {
		switch kind := data[p]; kind {
		case OptEnd:
			break opts
		case OptNOP:
			h.Options = append(h.Options, TCPOption{Kind: OptNOP})
			p++
		default:
			if p+1 >= hl {
				return 0, fmt.Errorf("tcp: option %d truncated", kind)
			}
			olen := int(data[p+1])
			if olen < 2 || p+olen > hl {
				return 0, fmt.Errorf("tcp: option %d bad length %d", kind, olen)
			}
			h.Options = append(h.Options, TCPOption{
				Kind: kind,
				Data: append([]byte(nil), data[p+2:p+olen]...),
			})
			p += olen
		}
	}
	return hl, nil
}

// refFragment is the heap fragmenter that Pool.Fragment replaced: it
// serializes the whole datagram (fixing p's checksums and lengths in
// place as it goes) and re-parses the first chunk for a typed header.
func refFragment(p *Packet, mtu int) ([]*Packet, error) {
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
			f.IP.SetLengths(len(chunk))
			tmp := f.IP.SerializeTo(nil, len(chunk), SerializeOptions{ComputeChecksums: true, FixLengths: true})
			tmp = append(tmp, chunk...)
			parsed, err := refParse(tmp)
			if err != nil {
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

// packetDiff names the first field in which got differs from want, or
// returns "" when they agree: every header field (RawDataOffset and the
// checksums included), each option's kind and bytes, the payload, the
// bad-checksum mark and the lineage.
func packetDiff(got, want *Packet) string {
	gi, wi := got.IP, want.IP
	gi.Options, wi.Options = nil, nil
	switch {
	case !reflect.DeepEqual(gi, wi):
		return fmt.Sprintf("IP header %+v, want %+v", gi, wi)
	case !bytes.Equal(got.IP.Options, want.IP.Options):
		return fmt.Sprintf("IP options %x, want %x", got.IP.Options, want.IP.Options)
	case (got.TCP == nil) != (want.TCP == nil) || (got.UDP == nil) != (want.UDP == nil) || (got.ICMP == nil) != (want.ICMP == nil):
		return fmt.Sprintf("L4 %v, want %v", got, want)
	case !bytes.Equal(got.Payload, want.Payload):
		return fmt.Sprintf("payload %x, want %x", got.Payload, want.Payload)
	case got.BadTCPChecksum != want.BadTCPChecksum:
		return "bad-checksum mark differs"
	case got.Lin != want.Lin:
		return fmt.Sprintf("lineage %+v, want %+v", got.Lin, want.Lin)
	}
	if got.TCP != nil {
		gt, wt := *got.TCP, *want.TCP
		gt.Options, wt.Options = nil, nil
		if !reflect.DeepEqual(gt, wt) {
			return fmt.Sprintf("TCP header %+v, want %+v", gt, wt)
		}
		if len(got.TCP.Options) != len(want.TCP.Options) {
			return fmt.Sprintf("TCP options %v, want %v", got.TCP.Options, want.TCP.Options)
		}
		for i, o := range got.TCP.Options {
			if w := want.TCP.Options[i]; o.Kind != w.Kind || !bytes.Equal(o.Data, w.Data) {
				return fmt.Sprintf("TCP option %d %v, want %v", i, o, w)
			}
		}
	}
	if got.UDP != nil && *got.UDP != *want.UDP {
		return fmt.Sprintf("UDP header %+v, want %+v", *got.UDP, *want.UDP)
	}
	if got.ICMP != nil {
		gm, wm := *got.ICMP, *want.ICMP
		gm.Body, wm.Body = nil, nil
		if !reflect.DeepEqual(gm, wm) || !bytes.Equal(got.ICMP.Body, want.ICMP.Body) {
			return fmt.Sprintf("ICMP %+v, want %+v", *got.ICMP, *want.ICMP)
		}
	}
	if g, w := got.Serialize(SerializeOptions{}), want.Serialize(SerializeOptions{}); !bytes.Equal(g, w) {
		return fmt.Sprintf("wire %x, want %x", g, w)
	}
	return ""
}

// FuzzFragmentPooled holds the pooled decoder and fragmenter to the
// heap ones they replaced. The input is a datagram, an MTU and a flag
// byte: Pool.Parse must accept exactly what refParse accepts and
// decode the same packet; Pool.Fragment must cut that packet into the
// same fragments refFragment does, field for field and byte for byte,
// lineage included, without touching its input; and every pooled
// packet goes back to the pool.
func FuzzFragmentPooled(f *testing.F) {
	tcp := NewTCP(addrA, 4000, addrB, 80, FlagPSH|FlagACK, 100, 200, bytes.Repeat([]byte("GET /ultrasurf "), 100))
	tcp.TCP.Options = []TCPOption{{Kind: OptNOP}, {Kind: OptNOP}, TimestampOption(7, 9)}
	tcp.Finalize()
	syn := NewTCP(addrA, 4000, addrB, 80, FlagSYN, 100, 0, nil)
	syn.TCP.Options = []TCPOption{MSSOption(1460), TimestampOption(1, 2), MD5Option([16]byte{1})}
	syn.Finalize()
	withIPOpts := NewTCP(addrA, 4000, addrB, 80, FlagACK, 1, 1, make([]byte, 300))
	withIPOpts.IP.Options = []byte{7, 3, 4}
	withIPOpts.Finalize()
	udp := NewUDP(addrA, 53, addrB, 53, make([]byte, 200))
	icmp := &Packet{IP: IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: addrA, Dst: addrB},
		ICMP: TimeExceeded(tcp)}
	icmp.Finalize()
	raw := &Packet{IP: IPv4Header{TTL: 64, Protocol: 99, Src: addrA, Dst: addrB}, Payload: make([]byte, 100)}
	raw.Finalize()
	for _, p := range []*Packet{tcp, syn, withIPOpts, udp, icmp, raw} {
		wire := p.Serialize(SerializeOptions{})
		for _, mtu := range []uint16{28, 48, 60, 532, 576, 1500} {
			f.Add(wire, mtu, byte(0))
		}
		f.Add(wire, uint16(60), byte(3))
	}
	f.Add([]byte{0x45}, uint16(60), byte(0))
	f.Fuzz(func(t *testing.T, data []byte, mtu uint16, flags byte) {
		pl := NewPool()
		want, wantErr := refParse(data)
		got, err := pl.Parse(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Pool.Parse error %v, refParse %v", err, wantErr)
		}
		if err != nil {
			if s := pl.Stats(); s.Gets != s.Puts {
				t.Fatalf("a failed parse kept its packet: %+v", s)
			}
			return
		}
		if d := packetDiff(got, want); d != "" {
			t.Fatalf("Pool.Parse: %s", d)
		}
		// Fragment a lineage-stamped, possibly bad-checksum copy.
		for _, p := range []*Packet{got, want} {
			p.Lin = Lineage{ID: 7, Parent: 3, Origin: OriginStack}
			if flags&1 != 0 && p.TCP != nil {
				p.TCP.Checksum ^= 0x5555
				p.BadTCPChecksum = true
			}
		}
		before, _ := refParse(data)
		before.Lin = got.Lin
		if flags&1 != 0 && before.TCP != nil {
			before.TCP.Checksum ^= 0x5555
			before.BadTCPChecksum = true
		}
		wantFrags, wantErr := refFragment(want, int(mtu))
		frags, err := pl.Fragment(nil, got, int(mtu))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("Pool.Fragment error %v, refFragment %v", err, wantErr)
		}
		if d := packetDiff(got, before); d != "" {
			t.Fatalf("Pool.Fragment changed its input: %s", d)
		}
		if len(frags) != len(wantFrags) {
			t.Fatalf("%d fragments, refFragment %d", len(frags), len(wantFrags))
		}
		for i := range frags {
			if d := packetDiff(frags[i], wantFrags[i]); d != "" {
				t.Fatalf("fragment %d: %s", i, d)
			}
		}
		for _, fr := range frags {
			fr.Release()
		}
		got.Release()
		if s := pl.Stats(); s.Gets != s.Puts {
			t.Fatalf("pool gets %d, puts %d", s.Gets, s.Puts)
		}
	})
}
