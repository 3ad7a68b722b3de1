package packet

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Pool recycles Packets through a sync.Pool-backed arena. A pooled
// Packet carries its own header and buffer storage inline, so crafting
// a segment from a pool is allocation-free in steady state: the L4
// header comes from the packet's embedded store, the payload is copied
// into a reusable buffer, and TCP option data lands in a reusable
// scratch region.
//
// Lifecycle rules (see DESIGN.md "Performance"):
//
//   - Ownership of an in-flight packet belongs to the netem layer;
//     everything that wants bytes past the delivery event must copy
//     (the stacks, the GFW streams, and the reassemblers all do).
//   - Release is called only at provably-dead points — link-loss and
//     router drops, middlebox Drop verdicts, after an endpoint's
//     Deliver returns, by the strategy engine for a client packet its
//     strategy's pieces replaced, and by the GFW and the stacks for the
//     whole datagram their reassembler built once they have processed
//     it. A missed Release is harmless (the GC takes it); a premature
//     one is corruption, so when in doubt, don't.
//   - Nothing is released while a Trace callback is attached
//     (netem.Fabric.Release decides): TraceEvents hold *Packet pointers
//     for later rendering. The exception is a packet no tracer has
//     seen: a strategy's plan releases a piece it made and never
//     emitted directly, and the engine an insertion packet once its
//     waves' clones are scheduled.
//   - Under the checked build (Checked) a released packet is poisoned
//     and never recycled, so a premature release shows as junk fields
//     downstream instead of passing silently.
//
// All methods are safe on a nil *Pool and fall back to plain heap
// allocation, so call sites need no branching.
type Pool struct {
	p sync.Pool

	// Counters are atomic: one pool may serve every worker of a
	// parallel campaign.
	gets atomic.Uint64
	puts atomic.Uint64
	news atomic.Uint64
}

// PoolStats is a snapshot of pool traffic. Recycled = Gets - News is
// the number of allocations the pool avoided.
type PoolStats struct {
	Gets, Puts, News uint64
}

// Recycled returns how many Get calls were served from recycled
// packets rather than fresh allocations.
func (s PoolStats) Recycled() uint64 { return s.Gets - s.News }

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns a snapshot of the pool's traffic counters.
func (pl *Pool) Stats() PoolStats {
	if pl == nil {
		return PoolStats{}
	}
	return PoolStats{Gets: pl.gets.Load(), Puts: pl.puts.Load(), News: pl.news.Load()}
}

// Get returns a zeroed packet owned by the pool (or a plain heap packet
// when pl is nil). The caller must not hold references to any previous
// incarnation's headers or buffers.
func (pl *Pool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	pl.gets.Add(1)
	if v := pl.p.Get(); v != nil {
		p := v.(*Packet)
		p.reset()
		p.free = false
		return p
	}
	pl.news.Add(1)
	return &Packet{pool: pl}
}

// put returns p to the pool. Callers go through Packet.Release. The
// checked build poisons p and keeps it out of the pool instead.
func (pl *Pool) put(p *Packet) {
	pl.puts.Add(1)
	if Checked {
		p.poison()
		return
	}
	pl.p.Put(p)
}

// poisonByte is the junk Scribble writes and poison stamps.
const poisonByte = 0xdb

// poison scribbles a released packet for the checked build: its
// addresses, ports, sequence numbers and flags, and its own payload
// and option bytes, so whoever reads it after the release reads junk.
func (p *Packet) poison() {
	junk := Addr{poisonByte, poisonByte, poisonByte, poisonByte}
	p.IP.Src, p.IP.Dst, p.IP.TTL = junk, junk, poisonByte
	t := &p.tcpStore
	t.SrcPort, t.DstPort, t.Flags = poisonByte, poisonByte, 0xff
	t.Seq, t.Ack = 0xdbdbdbdb, 0xdbdbdbdb
	p.udpStore.SrcPort, p.udpStore.DstPort = poisonByte, poisonByte
	Scribble(p.payloadBuf)
	Scribble(p.optBuf)
	Scribble(p.ipOptBuf)
	Scribble(p.icmpStore.Body)
}

// Scribble overwrites b with junk across its whole capacity: what the
// checked build does to bytes their owner gives back, so that a view
// which outlived them reads junk.
func Scribble(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

// Reuse returns b emptied for its owner to fill again. The checked
// build scribbles b and returns nil instead, so its bytes are never
// handed out twice.
func Reuse(b []byte) []byte {
	if Checked {
		Scribble(b)
		return nil
	}
	return b[:0]
}

// Release returns the packet to its owning pool, if any. Heap packets
// (and packets from a nil pool) ignore it. Releasing the same packet
// twice is a hard ownership bug and panics rather than silently
// corrupting a future packet.
func (p *Packet) Release() {
	if p == nil || p.pool == nil {
		return
	}
	if p.free {
		panic("packet: double Release")
	}
	p.free = true
	p.pool.put(p)
}

// Pooled reports whether the packet came from a Pool.
func (p *Packet) Pooled() bool { return p.pool != nil }

// reset clears the packet for reuse, keeping the backing storage.
func (p *Packet) reset() {
	p.IP = IPv4Header{}
	p.TCP, p.UDP, p.ICMP = nil, nil, nil
	p.Payload = nil
	p.BadTCPChecksum = false
	p.hdrVerified = false
	p.Lin = Lineage{}
	p.payloadBuf = p.payloadBuf[:0]
	p.optBuf = p.optBuf[:0]
	p.ipOptBuf = p.ipOptBuf[:0]
	opts := p.tcpStore.Options[:0]
	p.tcpStore = TCPHeader{Options: opts}
	p.udpStore = UDPHeader{}
	body := p.icmpStore.Body
	p.icmpStore = ICMPMessage{}
	p.icmpStore.Body = body[:0]
}

// UseTCP points the packet at its embedded TCP header store (cleared)
// and returns it.
func (p *Packet) UseTCP() *TCPHeader {
	opts := p.tcpStore.Options[:0]
	p.tcpStore = TCPHeader{Options: opts}
	p.TCP = &p.tcpStore
	return p.TCP
}

// UseUDP points the packet at its embedded UDP header store (cleared)
// and returns it.
func (p *Packet) UseUDP() *UDPHeader {
	p.udpStore = UDPHeader{}
	p.UDP = &p.udpStore
	return p.UDP
}

// UseICMP points the packet at its embedded ICMP store (cleared, body
// truncated) and returns it.
func (p *Packet) UseICMP() *ICMPMessage {
	body := p.icmpStore.Body
	p.icmpStore = ICMPMessage{}
	p.icmpStore.Body = body[:0]
	p.ICMP = &p.icmpStore
	return p.ICMP
}

// payloadReserve is the room a pool packet's payload buffer takes when
// it first grows: a full segment. sync.Pool hands a packet that has
// only carried ACKs to a data segment as readily as one that carried
// data, so without the reserve a recycled packet would grow its buffer
// again for each larger payload it meets.
const payloadReserve = 1460

// SetPayload copies data into the packet's reusable payload buffer.
func (p *Packet) SetPayload(data []byte) {
	if p.pool != nil && cap(p.payloadBuf) == 0 && len(data) > 0 {
		p.payloadBuf = make([]byte, 0, max(len(data), payloadReserve))
	}
	p.payloadBuf = append(p.payloadBuf[:0], data...)
	p.Payload = p.payloadBuf
}

// optScratch carves n fresh bytes out of the option-data scratch
// region. Earlier slices stay valid across growth (they keep pointing
// at the old backing array, which is simply not reused).
func (p *Packet) optScratch(n int) []byte {
	off := len(p.optBuf)
	if cap(p.optBuf)-off < n {
		grown := make([]byte, off, 2*cap(p.optBuf)+n)
		copy(grown, p.optBuf)
		p.optBuf = grown
	}
	p.optBuf = p.optBuf[:off+n]
	return p.optBuf[off : off+n]
}

// AddMSSOption appends a maximum-segment-size option, reusing the
// packet's option scratch.
func (p *Packet) AddMSSOption(mss uint16) {
	d := p.optScratch(2)
	d[0], d[1] = byte(mss>>8), byte(mss)
	p.TCP.Options = append(p.TCP.Options, TCPOption{Kind: OptMSS, Data: d})
}

// AddTimestampOption appends an RFC 7323 timestamps option, reusing the
// packet's option scratch.
func (p *Packet) AddTimestampOption(tsval, tsecr uint32) {
	d := p.optScratch(8)
	d[0], d[1], d[2], d[3] = byte(tsval>>24), byte(tsval>>16), byte(tsval>>8), byte(tsval)
	d[4], d[5], d[6], d[7] = byte(tsecr>>24), byte(tsecr>>16), byte(tsecr>>8), byte(tsecr)
	p.TCP.Options = append(p.TCP.Options, TCPOption{Kind: OptTimestamps, Data: d})
}

// NewTCP is the pooled equivalent of packet.NewTCP: a finalized TCP
// packet with the same defaults (TTL 64, window 29200).
func (pl *Pool) NewTCP(src Addr, sport uint16, dst Addr, dport uint16, flags uint8, seq, ack Seq, payload []byte) *Packet {
	p := pl.Get()
	p.IP = IPv4Header{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}
	tcp := p.UseTCP()
	tcp.SrcPort, tcp.DstPort = sport, dport
	tcp.Seq, tcp.Ack = seq, ack
	tcp.Flags = flags
	tcp.Window = 29200
	p.SetPayload(payload)
	return p.Finalize()
}

// NewUDP is the pooled equivalent of packet.NewUDP.
func (pl *Pool) NewUDP(src Addr, sport uint16, dst Addr, dport uint16, payload []byte) *Packet {
	p := pl.Get()
	p.IP = IPv4Header{TTL: 64, Protocol: ProtoUDP, Src: src, Dst: dst}
	udp := p.UseUDP()
	udp.SrcPort, udp.DstPort = sport, dport
	p.SetPayload(payload)
	return p.Finalize()
}

// Clone is the pooled equivalent of Packet.Clone: a deep copy whose
// headers and buffers come from the pool packet's own storage, so the
// clone shares no memory with the original.
func (pl *Pool) Clone(src *Packet) *Packet {
	c := pl.Get()
	c.IP = src.IP
	c.Lin = src.Lin.child()
	if len(src.IP.Options) > 0 {
		c.ipOptBuf = append(c.ipOptBuf[:0], src.IP.Options...)
		c.IP.Options = c.ipOptBuf
	} else {
		c.IP.Options = nil
	}
	c.BadTCPChecksum = src.BadTCPChecksum
	switch {
	case src.TCP != nil:
		c.copyTCP(src.TCP)
	case src.UDP != nil:
		*c.UseUDP() = *src.UDP
	case src.ICMP != nil:
		m := c.UseICMP()
		body := m.Body
		*m = *src.ICMP
		m.Body = append(body, src.ICMP.Body...)
	}
	c.SetPayload(src.Payload)
	return c
}

// copyTCP points p at its embedded TCP store holding a copy of src,
// with the options' data in p's option scratch, and returns it.
func (p *Packet) copyTCP(src *TCPHeader) *TCPHeader {
	tcp := p.UseTCP()
	opts := tcp.Options
	*tcp = *src
	tcp.Options = opts
	for _, o := range src.Options {
		d := []byte(nil)
		if len(o.Data) > 0 {
			d = p.optScratch(len(o.Data))
			copy(d, o.Data)
		}
		tcp.Options = append(tcp.Options, TCPOption{Kind: o.Kind, Data: d})
	}
	return tcp
}

// Parse decodes a full IPv4 datagram from wire bytes into a packet
// from the pool (a heap packet when pl is nil). Its L4 header lives in
// the packet's embedded store and its payload and option bytes in the
// packet's own buffers, so data is not retained. Non-first fragments
// keep their L4 bytes in Payload with TCP/UDP/ICMP nil. On error the
// packet goes back to the pool.
func (pl *Pool) Parse(data []byte) (*Packet, error) {
	p := pl.Get()
	if err := p.decode(data); err != nil {
		p.Release()
		return nil, err
	}
	return p, nil
}

// Fragment splits datagram p into IP fragments whose L4 payloads are
// at most mtu-IPHeaderLen bytes (mtu counts the IP header), appends
// them to dst and returns the result. Fragment only reads p, and the
// fragments come from the pool (the heap when pl is nil) and share no
// storage with it. The first fragment carries the L4 header, the
// others raw bytes; fragment data lengths other than the last are
// rounded down to 8-byte multiples, as the offset encoding requires,
// and mtu must leave room for 8. A datagram that fits is appended as
// one copy. Every packet appended carries honest lengths and
// checksums, whatever p's fields say.
func (pl *Pool) Fragment(dst []*Packet, p *Packet, mtu int) ([]*Packet, error) {
	if p.IP.IsFragment() {
		return dst, fmt.Errorf("fragment: packet is already a fragment")
	}
	if p.IP.Flags&IPFlagDontFragment != 0 {
		return dst, fmt.Errorf("fragment: DF set")
	}
	hl := IPv4HeaderLen + (len(p.IP.Options)+3)&^3 // options padded as on the wire
	maxData := (mtu - hl) &^ 7
	if maxData < 8 {
		return dst, fmt.Errorf("fragment: mtu %d too small", mtu)
	}
	l4len := len(p.Payload)
	switch {
	case p.TCP != nil:
		l4len += p.TCP.HeaderLen()
	case p.UDP != nil:
		l4len += UDPHeaderLen
	case p.ICMP != nil:
		l4len = 8 + len(p.ICMP.Body)
	}
	if l4len <= maxData {
		return append(dst, pl.Clone(p).Finalize()), nil
	}
	// A TCP header that fits the first fragment is copied as a typed
	// header, and every chunk is a slice of the payload. Anything else
	// is cut from the serialized L4 bytes, and the first chunk decoded
	// as far as it goes.
	var l4 []byte
	thl := 0
	if p.TCP != nil && p.TCP.HeaderLen() <= min(maxData, 60) {
		thl = p.TCP.HeaderLen()
	} else {
		l4 = p.appendL4(nil, SerializeOptions{ComputeChecksums: true, FixLengths: true})
	}
	for off := 0; off < l4len; off += maxData {
		end := min(off+maxData, l4len)
		f := pl.Get()
		f.IP = p.IP
		f.setIPOptions(p.IP.Options)
		f.IP.FragOffset = uint16(off / 8)
		if end < l4len {
			f.IP.Flags |= IPFlagMoreFragments
		} else {
			f.IP.Flags &^= IPFlagMoreFragments
		}
		switch {
		case thl > 0 && off == 0:
			tcp := f.copyTCP(p.TCP)
			tcp.Checksum = p.TCP.checksumFixed(p.IP.Src, p.IP.Dst, p.Payload)
			tcp.RawDataOffset = uint8(thl / 4)
			f.SetPayload(p.Payload[:end-thl])
		case thl > 0:
			f.SetPayload(p.Payload[off-thl : end-thl])
		case off == 0 && hl <= 60 && f.decodeL4(l4[:end]) == nil:
			// The first chunk decodes to a typed header and payload.
			// (An IP header past 60 bytes has no IHL to decode by.)
		default:
			// A non-first chunk, or an L4 header the first chunk cuts
			// short: raw bytes.
			f.TCP, f.UDP, f.ICMP = nil, nil, nil
			f.SetPayload(l4[off:end])
		}
		f.IP.SetLengths(end - off)
		f.IP.UpdateChecksum()
		dst = append(dst, f)
	}
	return dst, nil
}

// setIPOptions sets p's IP options to a copy of opts in p's own
// buffer, zero-padded to the 4-byte multiple the wire carries.
func (p *Packet) setIPOptions(opts []byte) {
	if len(opts) == 0 {
		p.IP.Options = nil
		return
	}
	b := append(p.ipOptBuf[:0], opts...)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	p.ipOptBuf = b
	p.IP.Options = b
}

// TimeExceededPacket builds from the pool a router's ICMP Time-Exceeded
// reply: a finalized reply from src quoting orig's IP header and first
// 8 L4 bytes. It recomputes orig's checksums in place while quoting
// (the original is being dropped; routers quote honest bytes).
func (pl *Pool) TimeExceededPacket(orig *Packet, src Addr) *Packet {
	rep := pl.Get()
	rep.IP = IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: src, Dst: orig.IP.Src}
	m := rep.UseICMP()
	m.Type = ICMPTimeExceeded

	orig.Finalize()
	body := m.Body[:0]
	body = orig.IP.SerializeTo(body, int(orig.IP.TotalLength)-orig.IP.HeaderLen(), SerializeOptions{})
	// First 8 bytes of the L4 header, via the option scratch so the
	// serialization is allocation-free too.
	l4 := rep.optBuf[:0]
	switch {
	case orig.TCP != nil:
		l4 = orig.TCP.SerializeTo(l4, orig.IP.Src, orig.IP.Dst, nil, SerializeOptions{})
	case orig.UDP != nil:
		l4 = orig.UDP.SerializeTo(l4, orig.IP.Src, orig.IP.Dst, nil, SerializeOptions{})
	case orig.ICMP != nil:
		l4 = orig.ICMP.SerializeTo(l4, SerializeOptions{})
	default:
		l4 = append(l4, orig.Payload...)
	}
	rep.optBuf = l4[:0]
	if len(l4) > 8 {
		l4 = l4[:8]
	}
	m.Body = append(body, l4...)
	return rep.Finalize()
}
