package gfw

import (
	"bytes"

	"intango/internal/netem"
	"intango/internal/packet"
)

// The active prober (§7.3, Ensafi et al. / Winter & Lindskog): after a
// flow is fingerprinted as Tor, the censor connects to the suspected
// bridge *itself*, from an unrelated Chinese address, replays a
// Tor-style handshake, and null-routes the IP if the endpoint answers
// like a bridge. Here the probe is real traffic: the device injects
// the prober's packets at its own hop and watches the bridge's replies
// pass back through its tap.

// proberBase is the address pool the prober sources from — addresses
// the paper's bridge operators saw probing them from all over China.
var proberBase = packet.AddrFrom4(59, 66, 200, 0)

// probeState tracks one in-flight active probe.
type probeState struct {
	bridge     packet.Addr
	port       uint16
	proberAddr packet.Addr
	proberPort uint16
	iss        packet.Seq
	state      int // 0 = syn sent, 1 = established/hello sent
}

// launchActiveProbe starts a probe toward bridge:port after the
// configured delay.
func (d *Device) launchActiveProbe(ctx *netem.Context, bridge packet.Addr, port uint16) {
	if d.probes == nil {
		d.probes = make(map[packet.FourTuple]*probeState)
	}
	d.proberSeq++
	ps := &probeState{
		bridge:     bridge,
		port:       port,
		proberAddr: packet.AddrFrom4(proberBase[0], proberBase[1], proberBase[2], byte(d.proberSeq)),
		proberPort: 50000 + uint16(d.proberSeq),
		iss:        packet.Seq(d.rng.Uint32()),
	}
	tuple := packet.FourTuple{
		SrcAddr: ps.proberAddr, SrcPort: ps.proberPort,
		DstAddr: bridge, DstPort: port,
	}
	d.probes[tuple.Canonical()] = ps
	d.event("tor-probe-launch", tuple, bridge.String())
	// The fabric reuses one Context across arrivals, so copy it before
	// capturing: by the time this fires, ctx points at a later packet's
	// node.
	probeCtx := &netem.Context{Sim: ctx.Sim, Net: ctx.Net, Node: ctx.Node}
	ctx.Sim.At(d.cfg.ActiveProbeDelay, func() {
		syn := probeCtx.Pool().NewTCP(ps.proberAddr, ps.proberPort, bridge, port, packet.FlagSYN, ps.iss, 0, nil)
		syn.Lin.Origin = packet.OriginGFW
		d.injectToward(probeCtx, bridge, syn)
	})
}

// proberPacket intercepts traffic belonging to an active probe. It
// returns true when the packet was probe traffic (and must not be
// processed as a monitored flow).
func (d *Device) proberPacket(ctx *netem.Context, pkt *packet.Packet) bool {
	if len(d.probes) == 0 || pkt.TCP == nil {
		return false
	}
	key := pkt.Tuple().Canonical()
	ps, ok := d.probes[key]
	if !ok {
		return false
	}
	// Only the bridge's replies are interesting; they pass the tap on
	// their way toward the (nonexistent) prober host.
	if pkt.IP.Src != ps.bridge {
		return true
	}
	tcp := pkt.TCP
	switch ps.state {
	case 0:
		if tcp.HasFlag(packet.FlagSYN) && tcp.HasFlag(packet.FlagACK) && tcp.Ack == ps.iss.Add(1) {
			ps.state = 1
			// Complete the handshake and send a Tor-style hello.
			ack := ctx.Pool().NewTCP(ps.proberAddr, ps.proberPort, ps.bridge, ps.port,
				packet.FlagACK, ps.iss.Add(1), tcp.Seq.Add(1), nil)
			ack.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: pkt.Lin.ID}
			d.injectToward(ctx, ps.bridge, ack)
			hello := torProbeHello()
			data := ctx.Pool().NewTCP(ps.proberAddr, ps.proberPort, ps.bridge, ps.port,
				packet.FlagPSH|packet.FlagACK, ps.iss.Add(1), tcp.Seq.Add(1), hello)
			data.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: pkt.Lin.ID}
			d.injectToward(ctx, ps.bridge, data)
		} else if tcp.HasFlag(packet.FlagRST) {
			d.finishProbe(key, ps, false)
		}
	case 1:
		switch {
		case tcp.HasFlag(packet.FlagRST):
			d.finishProbe(key, ps, false)
		case len(pkt.Payload) > 0:
			// A TLS-shaped reply to a Tor-shaped hello: confirmed.
			confirmed := len(pkt.Payload) > 0 && pkt.Payload[0] == 0x16
			d.finishProbe(key, ps, confirmed)
		}
	}
	return true
}

// finishProbe records the verdict and null-routes confirmed bridges.
func (d *Device) finishProbe(key packet.FourTuple, ps *probeState, confirmed bool) {
	delete(d.probes, key)
	if confirmed {
		if !d.ipBlock[ps.bridge] {
			d.BlockIP(ps.bridge)
			d.event("ip-block", key, ps.bridge.String())
		}
		d.event("tor-probe-confirm", key, ps.bridge.String())
		return
	}
	d.event("tor-probe-negative", key, ps.bridge.String())
}

// torProbeHello builds the prober's Tor-imitating ClientHello.
func torProbeHello() []byte {
	hello := []byte{0x16, 3, 1, 0, 60, 0x01, 0, 0, 56, 3, 3}
	hello = append(hello, bytes.Repeat([]byte{0x99}, 16)...)
	// The same distinctive cipher list the fingerprint keys on.
	return append(hello, []byte{0xc0, 0x2b, 0xc0, 0x2f, 0x00, 0x9e, 0xcc, 0x14, 0xcc, 0x13}...)
}

// ProbeInFlight reports whether an active probe toward addr is
// outstanding (diagnostics).
func (d *Device) ProbeInFlight(addr packet.Addr) bool {
	for _, ps := range d.probes {
		if ps.bridge == addr {
			return true
		}
	}
	return false
}
