package packet

import (
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
//     router drops, middlebox Drop verdicts, and after an endpoint's
//     Deliver returns. A missed Release is harmless (the GC takes it);
//     a premature one is corruption, so when in doubt, don't.
//   - The netem path never releases while a Trace callback is attached:
//     TraceEvents hold *Packet pointers for later rendering.
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

// put returns p to the pool. Callers go through Packet.Release.
func (pl *Pool) put(p *Packet) {
	pl.puts.Add(1)
	pl.p.Put(p)
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

// SetPayload copies data into the packet's reusable payload buffer.
func (p *Packet) SetPayload(data []byte) {
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
		tcp := c.UseTCP()
		opts := tcp.Options
		*tcp = *src.TCP
		tcp.Options = opts
		for _, o := range src.TCP.Options {
			d := []byte(nil)
			if len(o.Data) > 0 {
				d = c.optScratch(len(o.Data))
				copy(d, o.Data)
			}
			tcp.Options = append(tcp.Options, TCPOption{Kind: o.Kind, Data: d})
		}
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

// TimeExceededPacket is the pooled equivalent of building a router's
// ICMP Time-Exceeded reply around packet.TimeExceeded: a finalized
// reply from src quoting orig's IP header and first 8 L4 bytes. Like
// TimeExceeded, it recomputes orig's checksums in place while quoting
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
