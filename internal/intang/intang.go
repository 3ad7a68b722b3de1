// Package intang implements the INTANG engine of §6: a
// measurement-driven censorship-evasion controller that interposes on
// the client's traffic (the netfilter-queue position), chooses the most
// promising strategy per server from cached history, measures hop
// counts for TTL-based insertion packets, and transparently forwards
// UDP DNS queries over evasion-protected TCP.
package intang

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/core"
	"intango/internal/dnsmsg"
	"intango/internal/kvstore"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Options configures an INTANG instance.
type Options struct {
	// Candidates is the ordered list of strategies to try against a
	// server with no cached result — registry names ("improved-teardown")
	// or raw spec text ("on:first-payload[teardown(flags=rst,disc=ttl)]").
	// Defaults to the paper's best performers (Table 4), strongest
	// first.
	Candidates []string
	// CacheTTL bounds how long a per-server strategy result is trusted
	// before re-measurement (§6: "retained only for a certain period").
	CacheTTL time.Duration
	// Resolver is the unpolluted DNS-over-TCP resolver the DNS
	// forwarder targets.
	Resolver packet.Addr
	// Delta is the initial TTL safety margin subtracted from the
	// measured hop count (§7.1, δ=2).
	Delta int
	// AdaptiveDelta lets INTANG converge δ per destination (§7.1): a
	// timeout (insertion likely hit the server or a server-side
	// middlebox) raises δ; exhausting the strategy rotation (insertion
	// likely dying before the GFW) lowers it.
	AdaptiveDelta bool
}

func (o Options) withDefaults() Options {
	if o.Candidates == nil {
		o.Candidates = []string{
			"teardown-reversal", "improved-teardown",
			"creation-resync-desync", "improved-prefill",
		}
	}
	if o.CacheTTL == 0 {
		o.CacheTTL = 30 * time.Minute
	}
	if o.Delta == 0 {
		o.Delta = 2
	}
	return o
}

// Hop-count probing sweeps TTLs up to maxProbeTTL, and a protected
// connection silent for responseTimeout is booked as a Failure-1.
const (
	maxProbeTTL     = 32
	responseTimeout = 6 * time.Second
)

// INTANG owns a core.Engine and drives its strategy choice.
type INTANG struct {
	Engine *core.Engine
	Opts   Options
	Store  *kvstore.CachedStore

	sim   *netem.Simulator
	net   *netem.Fabric
	stack *tcpstack.Stack

	// candidates are Opts.Candidates resolved once at New: the display
	// name the caller used, the canonical spec string that identifies
	// the strategy (the per-server result cache stores these), and the
	// compiled factory.
	candidates []candidate
	// byCanon maps a cached canonical spec string back to its
	// candidate.
	byCanon map[string]*candidate

	// rotation tracks which candidate a server is on.
	rotation map[packet.Addr]int
	// live maps a flow to the server/strategy pair awaiting feedback.
	live map[packet.FourTuple]*liveFlow

	// hops holds measured hop counts per destination.
	hops map[packet.Addr]int
	// delta holds the converged per-destination TTL margin.
	delta map[packet.Addr]int
	// probe bookkeeping: probe source port → TTL used.
	probePorts map[uint16]int
	probeBase  uint16

	// dnsPending maps a forwarder TCP connection to the original UDP
	// query context.
	dnsPending map[*tcpstack.Conn]dnsQueryCtx

	// Stats counts engine events by kind.
	Stats map[string]int

	// Obs, when set, mirrors the cache/rotation/δ life cycle into the
	// shared observability registry and flight recorder.
	Obs *obs.Obs
}

// candidate is one resolved strategy choice.
type candidate struct {
	display string
	canon   string
	factory core.Factory
}

type liveFlow struct {
	server packet.Addr
	// strategy is the canonical spec string — the identity the result
	// cache keys off; display is what humans (stats, traces) see.
	strategy string
	display  string
	decided  bool
}

type dnsQueryCtx struct {
	clientPort uint16
	id         uint16
}

// New wires an INTANG instance between stack and the client end of a
// fabric.
func New(sim *netem.Simulator, f *netem.Fabric, stack *tcpstack.Stack, opts Options) *INTANG {
	opts = opts.withDefaults()
	it := &INTANG{
		Opts:       opts,
		Store:      kvstore.NewCachedStore(1024, func() time.Duration { return sim.Now() }),
		sim:        sim,
		net:        f,
		stack:      stack,
		byCanon:    make(map[string]*candidate),
		rotation:   make(map[packet.Addr]int),
		live:       make(map[packet.FourTuple]*liveFlow),
		hops:       make(map[packet.Addr]int),
		delta:      make(map[packet.Addr]int),
		probePorts: make(map[uint16]int),
		probeBase:  61000,
		dnsPending: make(map[*tcpstack.Conn]dnsQueryCtx),
		Stats:      make(map[string]int),
	}
	it.candidates = make([]candidate, len(opts.Candidates))
	for i, key := range opts.Candidates {
		c := resolveCandidate(key)
		it.candidates[i] = c
		it.byCanon[c.canon] = &it.candidates[i]
	}
	env := core.DefaultEnv(10, sim.Rand())
	it.Engine = core.NewEngine(sim, f, stack, env)
	it.Engine.NewStrategy = it.newStrategy
	it.Engine.OnInbound = it.onInbound
	it.Engine.OnOutbound = it.onOutbound
	return it
}

// cacheKey is the per-server strategy record key.
func cacheKey(addr packet.Addr) string { return "strategy:" + addr.String() }

// resolveCandidate turns a candidate key (registry name or spec text)
// into its display name, canonical spec string, and compiled factory.
// Unresolvable keys degrade to a passthrough under their own name, as
// the old registry-miss path did.
func resolveCandidate(key string) candidate {
	if f, canon, err := core.ResolveStrategy(key); err == nil {
		return candidate{display: key, canon: canon, factory: f}
	}
	return candidate{display: key, canon: key,
		factory: func() core.Strategy { return core.Passthrough{} }}
}

// newStrategy picks the most promising strategy for a new flow (§6).
func (it *INTANG) newStrategy(tuple packet.FourTuple) core.Strategy {
	server := tuple.DstAddr
	c := it.chooseCandidate(server)
	lf := &liveFlow{server: server, strategy: c.canon, display: c.display}
	it.live[tuple] = lf
	it.Stats["flow:"+c.display]++
	if it.Obs != nil {
		it.Obs.Count("intang.flow")
		it.Obs.Trace("intang", "flow", 0, 0, c.display+" -> "+server.String())
	}
	it.sim.At(responseTimeout, func() { it.reportTimeout(lf) })
	return c.factory()
}

// DeltaFor returns the converged TTL margin for a destination.
func (it *INTANG) DeltaFor(server packet.Addr) int {
	if d, ok := it.delta[server]; ok {
		return d
	}
	return it.Opts.Delta
}

// reportTimeout books a silent connection as Failure-1: the likeliest
// cause is an insertion packet overshooting the GFW into a server-side
// middlebox or the server, so δ grows (the insertion TTL shrinks).
func (it *INTANG) reportTimeout(lf *liveFlow) {
	if lf.decided {
		return
	}
	lf.decided = true
	it.Stats["timeout"]++
	if it.Obs != nil {
		it.Obs.Count("intang.timeout")
		it.Obs.Trace("intang", "timeout", 0, 0, lf.display+" @ "+lf.server.String())
	}
	if v, ok := it.Store.Get(cacheKey(lf.server)); ok && v == lf.strategy {
		it.Store.Delete(cacheKey(lf.server))
	}
	if it.Opts.AdaptiveDelta {
		d := it.DeltaFor(lf.server)
		if d < 6 {
			it.delta[lf.server] = d + 1
			it.applyTTL(lf.server)
			it.Stats["delta-raise"]++
			if it.Obs != nil {
				it.Obs.Count("intang.delta-raise")
			}
		}
	}
}

// ChooseStrategy returns the display name of the strategy INTANG would
// use for server now: the cached winner if present, else the current
// rotation candidate.
func (it *INTANG) ChooseStrategy(server packet.Addr) string {
	return it.chooseCandidate(server).display
}

// ChooseSpec is ChooseStrategy in canonical spec form — the identity
// the per-server result cache stores.
func (it *INTANG) ChooseSpec(server packet.Addr) string {
	return it.chooseCandidate(server).canon
}

// chooseCandidate resolves the cached winner (a canonical spec string)
// or falls back to the rotation (§6).
func (it *INTANG) chooseCandidate(server packet.Addr) candidate {
	if v, ok := it.Store.Get(cacheKey(server)); ok {
		if it.Obs != nil {
			it.Obs.Count("intang.cache-hit")
		}
		if c, ok := it.byCanon[v]; ok {
			return *c
		}
		// A cached spec outside the candidate set (written by an earlier
		// configuration): still honour it.
		return resolveCandidate(v)
	}
	if it.Obs != nil {
		it.Obs.Count("intang.cache-miss")
	}
	idx := it.rotation[server] % len(it.candidates)
	return it.candidates[idx]
}

// reportSuccess caches the working strategy for the server.
func (it *INTANG) reportSuccess(lf *liveFlow) {
	if lf.decided {
		return
	}
	lf.decided = true
	// lf.strategy is the canonical spec string, so the cached record
	// survives renames of the display alias.
	it.Store.Set(cacheKey(lf.server), lf.strategy, it.Opts.CacheTTL)
	it.Stats["success"]++
	if it.Obs != nil {
		it.Obs.Count("intang.cache-store")
		it.Obs.Trace("intang", "cache-store", 0, 0, lf.display+" @ "+lf.server.String())
	}
}

// reportFailure advances the rotation for the server and drops any
// stale cached entry.
func (it *INTANG) reportFailure(lf *liveFlow) {
	if lf.decided {
		return
	}
	lf.decided = true
	if v, ok := it.Store.Get(cacheKey(lf.server)); ok && v == lf.strategy {
		it.Store.Delete(cacheKey(lf.server))
	}
	it.rotation[lf.server]++
	it.Stats["failure"]++
	if it.Obs != nil {
		it.Obs.Count("intang.rotation")
		it.Obs.Trace("intang", "rotation", 0, 0, lf.display+" failed @ "+lf.server.String())
	}
	// Exhausting the whole rotation suggests the insertion packets are
	// not reaching the GFW at all (§7.1's outside-China TTL problem):
	// shrink δ so they travel further.
	if it.Opts.AdaptiveDelta && it.rotation[lf.server]%len(it.Opts.Candidates) == 0 {
		if d := it.DeltaFor(lf.server); d > 0 {
			it.delta[lf.server] = d - 1
			it.applyTTL(lf.server)
			it.Stats["delta-lower"]++
			if it.Obs != nil {
				it.Obs.Count("intang.delta-lower")
			}
		}
	}
}

// onInbound watches feedback for live flows, hop-probe replies, and
// forwarder DNS responses.
func (it *INTANG) onInbound(pkt *packet.Packet) bool {
	switch {
	case pkt.ICMP != nil && pkt.ICMP.Type == packet.ICMPTimeExceeded:
		// Hop probes that died mid-path; nothing to learn beyond "not
		// reached", which the TTL sweep already encodes.
		if _, sp, _, _, ok := pkt.ICMP.QuotedTCP(); ok {
			if _, isProbe := it.probePorts[sp]; isProbe {
				return false // consume
			}
		}
		return true
	case pkt.TCP != nil:
		dport := pkt.TCP.DstPort
		if ttl, isProbe := it.probePorts[dport]; isProbe {
			// A SYN/ACK or RST from the server: TTL `ttl` reached it.
			if cur, ok := it.hops[pkt.IP.Src]; !ok || ttl < cur {
				it.hops[pkt.IP.Src] = ttl
				it.applyTTL(pkt.IP.Src)
			}
			return false // consume: the stack has no socket for probes
		}
		it.feedback(pkt)
		return true
	}
	return true
}

// feedback interprets inbound packets as per-flow success/failure
// evidence: server payload means the strategy worked; a RST means it
// did not.
func (it *INTANG) feedback(pkt *packet.Packet) {
	key := pkt.Tuple().Reverse()
	lf, ok := it.live[key]
	if !ok {
		return
	}
	switch {
	case len(pkt.Payload) > 0:
		it.reportSuccess(lf)
	case pkt.TCP.HasFlag(packet.FlagRST):
		it.reportFailure(lf)
	}
}

// --- hop-count measurement (tcptraceroute-style, §7.1) ---

// MeasureHops launches a TTL sweep of SYN probes toward dst:port. The
// result lands asynchronously (as the simulation runs) in HopsTo, and
// the insertion TTL is updated automatically.
func (it *INTANG) MeasureHops(dst packet.Addr, port uint16) {
	for ttl := 1; ttl <= maxProbeTTL; ttl++ {
		srcPort := it.probeBase
		it.probeBase++
		it.probePorts[srcPort] = ttl
		probe := packet.NewTCP(it.stack.Addr, srcPort, dst, port, packet.FlagSYN,
			packet.Seq(it.sim.Rand().Uint32()), 0, nil)
		probe.IP.TTL = uint8(ttl)
		probe.Finalize()
		delay := time.Duration(ttl) * time.Millisecond
		p := probe
		it.sim.At(delay, func() { it.net.SendFromClient(p) })
	}
	it.Stats["hop-probe-sweeps"]++
}

// HopsTo returns the measured hop count to dst, if the sweep completed.
func (it *INTANG) HopsTo(dst packet.Addr) (int, bool) {
	h, ok := it.hops[dst]
	return h, ok
}

// applyTTL folds the hop measurement and converged δ into the crafting
// environment: insertion TTL = hops - δ (§7.1).
func (it *INTANG) applyTTL(dst packet.Addr) {
	h, ok := it.hops[dst]
	if !ok {
		return
	}
	ttl := h - it.DeltaFor(dst)
	if ttl < 1 {
		ttl = 1
	}
	it.Engine.Env.InsertionTTL = uint8(ttl)
}

// --- DNS forwarder (§6) ---

// onOutbound redirects application UDP DNS queries into TCP queries
// against the configured resolver, protected by the same evasion
// strategies as any other connection.
func (it *INTANG) onOutbound(pkt *packet.Packet) bool {
	if pkt.UDP == nil || pkt.UDP.DstPort != 53 || it.Opts.Resolver.IsZero() {
		return true
	}
	query, err := dnsmsg.Decode(pkt.Payload)
	if err != nil || query.IsResponse() {
		return true
	}
	it.Stats["dns-forwarded"]++
	clientPort := pkt.UDP.SrcPort
	conn := it.stack.Connect(it.Opts.Resolver, 53)
	it.dnsPending[conn] = dnsQueryCtx{clientPort: clientPort, id: query.ID}
	payload := dnsmsg.FrameTCP(pkt.Payload)
	sent := false
	conn.OnStateChange = func(from, to tcpstack.State) {
		if to == tcpstack.Established && !sent {
			sent = true
			conn.Write(payload)
		}
	}
	consumed := 0
	conn.OnData = func([]byte) {
		msgs, n := dnsmsg.UnframeTCP(conn.Received()[consumed:])
		consumed += n
		for _, raw := range msgs {
			it.deliverDNSResponse(conn, raw)
		}
	}
	return false // the UDP query is consumed
}

// deliverDNSResponse converts a TCP DNS answer back into the UDP
// response the application expects — "completely transparent" (§6).
func (it *INTANG) deliverDNSResponse(conn *tcpstack.Conn, raw []byte) {
	ctx, ok := it.dnsPending[conn]
	if !ok {
		return
	}
	delete(it.dnsPending, conn)
	resp := packet.NewUDP(it.Opts.Resolver, 53, it.stack.Addr, ctx.clientPort, raw)
	it.stack.Deliver(resp)
	it.Stats["dns-answered"]++
	conn.Close()
}

// Describe renders the component diagram of Fig. 2 as text: the
// interception loop, strategy registry, caches, and DNS thread.
func (it *INTANG) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "INTANG{candidates=%v, cacheTTL=%v, resolver=%v, δ=%d}\n",
		it.Opts.Candidates, it.Opts.CacheTTL, it.Opts.Resolver, it.Opts.Delta)
	b.WriteString("main thread: netfilter-queue loop → strategy callbacks → raw-socket injection\n")
	b.WriteString("caching thread: LRU front cache → TTL'd store (Redis stand-in)\n")
	b.WriteString("DNS thread: UDP intercept → DNS-over-TCP forwarder → UDP reply synthesis\n")
	return b.String()
}
