package censor

import (
	"math/rand"
	"time"

	"intango/internal/dnsmsg"
	"intango/internal/dpi"
	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
)

// BlockerConfig parameterizes the inline blocker — the stateless
// bidirectional apparatus Nourin et al. measured in Turkmenistan:
// per-packet keyword DPI (no TCB, no reassembly), HTTP Host and DNS
// blocklists, forged DNS answers, and flow blackholing with a residual
// window. Compile lowers tcb-less detect/react specs here.
type BlockerConfig struct {
	// Keywords is the per-packet payload blacklist.
	Keywords []string
	// Bidirectional also scans server→client payloads.
	Bidirectional bool
	// Hosts is the HTTP Host blocklist (suffix match).
	Hosts []string
	// Domains is the DNS blocklist (suffix match).
	Domains []string
	// BlockDuration is the residual flow-blackhole window.
	BlockDuration time.Duration
	// PoisonDNS injects a forged answer for blocked domains;
	// PoisonAddr is the forged address (the GFW poison pool default
	// when zero — Turkmenistan's injector famously answers 127.0.0.1).
	PoisonDNS  bool
	PoisonAddr packet.Addr
}

// Blocker is a stateless bidirectional blocking device. Like every
// censor it splits across the two netem positions: the tap observes
// and injects (forged DNS answers) but never drops; the Filter
// companion enforces the pair blackhole in-path — including on the
// triggering packet itself, which the tap marks before the in-path
// chain runs.
type Blocker struct {
	name    string
	cfg     BlockerConfig
	matcher *dpi.Matcher

	// pairBlock maps a canonical address pair to the virtual time its
	// blackhole expires.
	pairBlock map[[2]packet.Addr]time.Duration

	// Stage marks for span profiling, mirroring gfw.Device.
	firstPktAt time.Duration
	lastPktAt  time.Duration
	verdictAt  time.Duration
	sawPkt     bool
	now        time.Duration

	// Stats counts events by kind; it is made at the first event, and
	// pairBlock at the first block.
	Stats map[string]int
	// Obs, when set, mirrors events into the shared observability
	// layer as "censor.<kind>" counters.
	Obs *obs.Obs

	// filter is the in-path companion (Filter).
	filter flowFilter
}

// Reset makes b a fresh blocker named name, keeping the storage of
// its tables; on a zero Blocker it builds one. The rng parameter keeps
// the signature uniform with the engine's; the stateless blocker draws
// no sampled behaviour.
func (b *Blocker) Reset(name string, cfg BlockerConfig, rng *rand.Rand) {
	if cfg.PoisonAddr == (packet.Addr{}) {
		cfg.PoisonAddr = gfw.PoisonAddr
	}
	_ = rng
	clear(b.pairBlock)
	clear(b.Stats)
	*b = Blocker{name: name, cfg: cfg, matcher: dpi.NewMatcher(cfg.Keywords), pairBlock: b.pairBlock, Stats: b.Stats}
	b.filter.b = b
}

// Name implements netem.Processor.
func (b *Blocker) Name() string { return b.name }

// SetObs implements Instance.
func (b *Blocker) SetObs(o *obs.Obs) { b.Obs = o }

// Stat implements Instance.
func (b *Blocker) Stat(kind string) int { return b.Stats[kind] }

// ClearStats implements Instance.
func (b *Blocker) ClearStats() {
	for k := range b.Stats {
		delete(b.Stats, k)
	}
}

// Marks implements Instance.
func (b *Blocker) Marks() (first, verdict, last time.Duration) {
	return b.firstPktAt, b.verdictAt, b.lastPktAt
}

// blockerVerdicts are the event kinds that stamp VerdictAt.
var blockerVerdicts = map[string]bool{
	"detect-keyword": true,
	"detect-host":    true,
	"detect-dns":     true,
}

func (b *Blocker) event(kind string, pkt *packet.Packet, detail string) {
	if b.Stats == nil {
		b.Stats = make(map[string]int)
	}
	b.Stats[kind]++
	if b.verdictAt == 0 && blockerVerdicts[kind] {
		b.verdictAt = b.now
	}
	if b.Obs != nil {
		b.Obs.Count("censor." + kind)
		note := b.name
		if detail != "" {
			note += " " + detail
		}
		var id uint32
		if pkt != nil {
			id = pkt.Lin.ID
		}
		b.Obs.TracePkt("censor", kind, id, 0, 0, 0, note)
	}
}

// Process implements netem.Processor as an on-path tap: it always
// passes and never mutates pkt. Detection here only marks state; the
// Filter companion does the dropping.
func (b *Blocker) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	b.now = ctx.Sim.Now()
	if !b.sawPkt {
		b.sawPkt = true
		b.firstPktAt = b.now
	}
	b.lastPktAt = b.now
	switch {
	case pkt.UDP != nil:
		b.processUDP(ctx, pkt)
	case pkt.TCP != nil:
		b.processTCP(pkt, dir)
	}
	return netem.Pass
}

func (b *Blocker) processTCP(pkt *packet.Packet, dir netem.Direction) {
	if len(pkt.Payload) == 0 {
		return
	}
	if dir == netem.ToClient && !b.cfg.Bidirectional {
		return
	}
	if len(b.cfg.Keywords) > 0 && b.matcher.Contains(pkt.Payload) {
		b.event("detect-keyword", pkt, "")
		b.blockPair(pkt.IP.Src, pkt.IP.Dst, pkt)
		return
	}
	if dir == netem.ToServer && len(b.cfg.Hosts) > 0 {
		if info, ok := dpi.ParseHTTPRequest(pkt.Payload); ok && gfw.DomainMatch(info.Host, b.cfg.Hosts) {
			b.event("detect-host", pkt, info.Host)
			b.blockPair(pkt.IP.Src, pkt.IP.Dst, pkt)
		}
	}
}

// processUDP applies the DNS blocklist to client→resolver queries:
// forged answer injection (when configured) plus the same residual
// blackhole every detection draws.
func (b *Blocker) processUDP(ctx *netem.Context, pkt *packet.Packet) {
	if pkt.UDP.DstPort != 53 || len(b.cfg.Domains) == 0 {
		return
	}
	name, ok := dpi.DNSUDPQueryName(pkt.Payload)
	if !ok || !gfw.DomainMatch(name, b.cfg.Domains) {
		return
	}
	b.event("detect-dns", pkt, name)
	if b.cfg.PoisonDNS {
		if query, err := dnsmsg.Decode(pkt.Payload); err == nil {
			forged := dnsmsg.NewResponse(query, b.cfg.PoisonAddr, 300)
			if payload, err := forged.Encode(); err == nil {
				resp := ctx.Pool().NewUDP(pkt.IP.Dst, 53, pkt.IP.Src, pkt.UDP.SrcPort, payload)
				resp.Lin = packet.Lineage{Origin: packet.OriginGFW, Parent: pkt.Lin.ID}
				dirOut := netem.ToServer
				if gfw.ClientSide(pkt.IP.Src) {
					dirOut = netem.ToClient
				}
				ctx.Inject(dirOut, resp, 0)
				b.event("dns-poison", pkt, name)
			}
		}
	}
	b.blockPair(pkt.IP.Src, pkt.IP.Dst, pkt)
}

// blockPair starts (or refreshes) the residual blackhole for an
// address pair.
func (b *Blocker) blockPair(src, dst packet.Addr, cause *packet.Packet) {
	if b.pairBlock == nil {
		b.pairBlock = make(map[[2]packet.Addr]time.Duration)
	}
	b.pairBlock[gfw.PairKey(src, dst)] = b.now + b.cfg.BlockDuration
	b.event("block", cause, "")
}

// PairBlocked reports whether the address pair is currently
// blackholed.
func (b *Blocker) PairBlocked(x, y packet.Addr, now time.Duration) bool {
	exp, ok := b.pairBlock[gfw.PairKey(x, y)]
	return ok && now < exp
}

// Filter implements Instance: the in-path companion that enforces the
// flow blackhole. Unlike the tap it can drop packets — and because
// taps run before in-path processors at a hop, the packet whose
// payload triggered detection is itself swallowed, which is what makes
// the blocker bidirectional blocking rather than reset injection: the
// client sees silence, not a RST.
func (b *Blocker) Filter() netem.Processor { return &b.filter }

type flowFilter struct{ b *Blocker }

func (f *flowFilter) Name() string { return f.b.name + "-flowfilter" }

func (f *flowFilter) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	key := gfw.PairKey(pkt.IP.Src, pkt.IP.Dst)
	exp, ok := f.b.pairBlock[key]
	if !ok {
		return netem.Pass
	}
	if ctx.Sim.Now() >= exp {
		delete(f.b.pairBlock, key)
		return netem.Pass
	}
	f.b.event("drop-flow", pkt, "")
	return netem.Drop
}
