package gfw

import (
	"strings"
	"time"

	"intango/internal/dnsmsg"
	"intango/internal/dpi"
	"intango/internal/netem"
	"intango/internal/packet"
)

// inspect runs the detection engine over newly ingested client data.
// wasInOrder reports whether the packet sat at the expected in-order
// position (a per-packet type-1 device only scans those); matches are
// new keyword hits from the reassembling type-2 scanner.
func (d *Device) inspect(ctx *netem.Context, key packet.FourTuple, t *tcb, pkt *packet.Packet, wasInOrder bool, matches []dpi.Match) {
	if t.immune || t.detected {
		return
	}

	// Protocol identification over the reassembled prefix.
	if t.classified == dpi.ProtoUnknown && t.stream.keep && t.stream.scanned >= 3 {
		t.classified = dpi.ClassifyClientStream(t.sport, t.stream.contiguous())
		switch {
		case t.classified != dpi.ProtoUnknown && t.sport != 53:
			// Only the classifier and the DNS-over-TCP check below read
			// the prefix: a classified non-DNS flow need not keep it.
			t.stream.dropPrefix(true)
		case t.classified == dpi.ProtoUnknown && t.stream.scanned >= dpi.ClassifyHorizon:
			// Unknown this far in, the flow stays unknown however it
			// continues, until a resync starts the stream over.
			t.stream.dropPrefix(false)
		}
	}

	type1Hit := d.cfg.Type1 && wasInOrder && d.matcher.Contains(pkt.Payload)
	type2Hit := d.cfg.Type2 && len(matches) > 0

	// DNS-over-TCP: censored domain in the query stream (§7.2).
	if d.cfg.Type2 && t.sport == 53 {
		if name, ok := dpi.DNSTCPQueryName(t.stream.contiguous()); ok && DomainMatch(name, d.cfg.PoisonedDomains) {
			type2Hit = true
		}
	}

	// Tor: fingerprint, reset, and dispatch the active prober (§7.3).
	if d.cfg.TorFiltering && t.classified == dpi.ProtoTor && !t.torHandled {
		t.torHandled = true
		d.eventPkt("tor-fingerprint", key, pkt, "")
		d.launchActiveProbe(ctx, t.server, t.sport)
		type2Hit = true
	}

	// OpenVPN-over-TCP DPI (observed November 2016).
	if d.cfg.VPNFiltering && t.classified == dpi.ProtoOpenVPN {
		type2Hit = true
	}

	if !type1Hit && !type2Hit {
		return
	}

	// GFW overload: some flows escape detection entirely (§3.4).
	if d.rng.Float64() < d.cfg.DetectionMissProb {
		t.immune = true
		d.eventPkt("detect-miss", key, pkt, "overload")
		return
	}

	t.detected = true
	d.eventPkt("detect", key, pkt, "")
	d.injectResets(ctx, t, type1Hit && d.cfg.Type1, d.cfg.Type2, pkt)
	if d.cfg.Type2 {
		d.blockPair(ctx, t.client, t.server, pkt)
	}
}

// DomainMatch reports whether name equals, or is a subdomain of, any
// entry in list, ignoring the case of name.
func DomainMatch(name string, list []string) bool {
	name = strings.ToLower(name)
	for _, dom := range list {
		if name == dom || strings.HasSuffix(name, "."+dom) {
			return true
		}
	}
	return false
}

// blockPair starts (or refreshes) the 90-second blocklist entry for a
// client/server address pair. cause is the packet whose detection
// triggered the entry.
func (d *Device) blockPair(ctx *netem.Context, client, server packet.Addr, cause *packet.Packet) {
	if d.pairBlock == nil {
		d.pairBlock = make(map[[2]packet.Addr]time.Duration)
	}
	d.pairBlock[PairKey(client, server)] = ctx.Sim.Now() + d.cfg.BlockDuration
	d.eventPkt("block", packet.FourTuple{SrcAddr: client, DstAddr: server}, cause, "")
}

// PairKey orders an address pair, so both directions of a flow key one
// blocklist entry.
func PairKey(a, b packet.Addr) [2]packet.Addr {
	for i := range a {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return [2]packet.Addr{a, b}
			}
			return [2]packet.Addr{b, a}
		}
	}
	return [2]packet.Addr{a, b}
}

// PairBlocked reports whether the address pair is currently blocked.
func (d *Device) PairBlocked(a, b packet.Addr, now time.Duration) bool {
	exp, ok := d.pairBlock[PairKey(a, b)]
	return ok && now < exp
}

// enforceBlocklist applies the during-block behaviour of §2.1: SYNs
// draw a forged SYN/ACK with a wrong sequence number; everything else
// draws resets toward both ends. Only type-2 devices enforce it. It
// returns true when the packet hit an active block.
func (d *Device) enforceBlocklist(ctx *netem.Context, pkt *packet.Packet) bool {
	if !d.cfg.Type2 {
		return false
	}
	exp, ok := d.pairBlock[PairKey(pkt.IP.Src, pkt.IP.Dst)]
	if !ok {
		return false
	}
	if ctx.Sim.Now() >= exp {
		delete(d.pairBlock, PairKey(pkt.IP.Src, pkt.IP.Dst))
		return false
	}
	tcp := pkt.TCP
	if tcp == nil {
		return true
	}
	tuple := pkt.Tuple()
	if tcp.FlagsOnly(packet.FlagSYN) {
		// Forged SYN/ACK with a wrong (random) sequence number but a
		// correct ack, obstructing the legitimate handshake.
		forged := ctx.Pool().NewTCP(pkt.IP.Dst, tcp.DstPort, pkt.IP.Src, tcp.SrcPort,
			packet.FlagSYN|packet.FlagACK, packet.Seq(d.rng.Uint32()), tcp.Seq.Add(1), nil)
		forged.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: lineageOf(pkt)}
		d.injectToward(ctx, pkt.IP.Src, forged)
		d.eventPkt("forged-synack", tuple, pkt, "")
		return true
	}
	// Reset both ends, keyed off the offending packet's numbers.
	toSrc := packet.Seq(0)
	if tcp.HasFlag(packet.FlagACK) {
		toSrc = tcp.Ack
	}
	d.injectTypedResets(ctx, pkt.IP.Dst, tcp.DstPort, pkt.IP.Src, tcp.SrcPort, toSrc, tcp.Seq.Add(len(pkt.Payload)), lineageOf(pkt))
	d.injectTypedResets(ctx, pkt.IP.Src, tcp.SrcPort, pkt.IP.Dst, tcp.DstPort, tcp.Seq.Add(len(pkt.Payload)), toSrc, lineageOf(pkt))
	d.eventPkt("block-enforce", tuple, pkt, "")
	return true
}

// injectResets fires the §2.1 reset volley for a detected TCB: type-1
// sends one bare RST each way; type-2 sends three RST/ACKs each way at
// offsets {0, 1460, 4380} from the current sequence. cause is the
// packet whose detection triggered the volley; every forged reset
// records it as its lineage parent.
func (d *Device) injectResets(ctx *netem.Context, t *tcb, type1, type2 bool, cause *packet.Packet) {
	serverSeq := t.serverNext // X: current server-side sequence (§2.1)
	clientSeq := t.clientNext
	parent := lineageOf(cause)

	if type1 {
		// Type-1: bare RST, random TTL and window (§2.1).
		toClient := ctx.Pool().NewTCP(t.server, t.sport, t.client, t.cport, packet.FlagRST, serverSeq, 0, nil)
		toClient.IP.TTL = uint8(40 + d.rng.Intn(200))
		toClient.TCP.Window = uint16(d.rng.Intn(65536))
		toClient.Finalize()
		toClient.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: parent}
		d.injectToward(ctx, t.client, toClient)

		toServer := ctx.Pool().NewTCP(t.client, t.cport, t.server, t.sport, packet.FlagRST, clientSeq, 0, nil)
		toServer.IP.TTL = uint8(40 + d.rng.Intn(200))
		toServer.TCP.Window = uint16(d.rng.Intn(65536))
		toServer.Finalize()
		toServer.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: parent}
		d.injectToward(ctx, t.server, toServer)
		d.eventPkt("inject-type1", packet.FourTuple{SrcAddr: t.client, DstAddr: t.server}, cause, "")
	}
	if type2 {
		d.injectTypedResets(ctx, t.server, t.sport, t.client, t.cport, serverSeq, clientSeq, parent)
		d.injectTypedResets(ctx, t.client, t.cport, t.server, t.sport, clientSeq, serverSeq, parent)
		d.eventPkt("inject-type2", packet.FourTuple{SrcAddr: t.client, DstAddr: t.server}, cause, "")
	}
}

// injectTypedResets emits the type-2 RST/ACK triple from (src,sport)
// toward dst, each stamped with the causing packet's lineage ID.
func (d *Device) injectTypedResets(ctx *netem.Context, src packet.Addr, sport uint16, dst packet.Addr, dport uint16, seq, ack packet.Seq, parent uint32) {
	for _, off := range d.cfg.ResetSeqOffsets {
		p := ctx.Pool().NewTCP(src, sport, dst, dport, packet.FlagRST|packet.FlagACK, seq.Add(off), ack, nil)
		// Type-2 signature: cyclically increasing TTL and window (§2.1).
		d.t2TTL++
		if d.t2TTL < 40 {
			d.t2TTL = 40
		}
		d.t2Win += 79
		p.IP.TTL = d.t2TTL
		p.TCP.Window = d.t2Win
		p.Finalize()
		p.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: parent}
		d.injectToward(ctx, dst, p)
	}
}

// injectToward sends a forged packet from the device's hop toward the
// end of the path holding addr.
func (d *Device) injectToward(ctx *netem.Context, dst packet.Addr, pkt *packet.Packet) {
	dir := netem.ToServer
	if ClientSide(dst) {
		dir = netem.ToClient
	}
	ctx.Inject(dir, pkt, 0)
}

// processUDP applies DNS poisoning to client→resolver queries (§2.1).
func (d *Device) processUDP(ctx *netem.Context, pkt *packet.Packet) {
	if pkt.UDP.DstPort != 53 {
		return
	}
	name, ok := dpi.DNSUDPQueryName(pkt.Payload)
	if !ok || !DomainMatch(name, d.cfg.PoisonedDomains) {
		return
	}
	query, err := dnsmsg.Decode(pkt.Payload)
	if err != nil {
		return
	}
	// Inject a forged response; being closer to the client than the
	// real resolver, it wins the race.
	forged := dnsmsg.NewResponse(query, d.cfg.PoisonedAddr, 300)
	payload, err := forged.Encode()
	if err != nil {
		return
	}
	resp := ctx.Pool().NewUDP(pkt.IP.Dst, 53, pkt.IP.Src, pkt.UDP.SrcPort, payload)
	resp.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: lineageOf(pkt)}
	d.injectToward(ctx, pkt.IP.Src, resp)
	d.eventPkt("dns-poison", pkt.Tuple(), pkt, name)
}

// PoisonAddr is the well-known bogus address the GFW's DNS poisoner
// returns (one of the documented poison IPs).
var PoisonAddr = packet.AddrFrom4(8, 7, 198, 45)
