package netem

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/obs"
	"intango/internal/packet"
)

// Node holds what one trial attaches at a fabric node.
type Node struct {
	// Taps are on-path observers (§2.1): they see every packet that
	// arrives at the node — including packets about to expire here —
	// before TTL processing, cannot drop, and must not mutate: the
	// node's router trusts a header an earlier router verified. The
	// GFW wiretap attaches here.
	Taps []Processor
	// Processors are in-path devices (middleboxes): they run after TTL
	// processing and may mutate or Drop.
	Processors []Processor
}

// Fabric is one trial's network: a shared Topology bound to a
// simulator, with the trial's taps and processors attached at its
// nodes. Every topology — the linear chain of the measured paths, or a
// graph with parallel censor branches and asymmetric routes — runs on
// it. Per trial it allocates only its own state: the node attachments,
// the event counters, and the token buckets of the rated links it
// actually uses.
type Fabric struct {
	Sim *Simulator
	// Client and Server receive packets arriving at the endpoints.
	Client Endpoint
	Server Endpoint
	// Trace, when set, observes every packet event on the fabric.
	Trace func(ev TraceEvent)
	// Obs, when set, counts packet events and records fabric-level
	// flight-recorder entries. Nil means disabled (the default) and
	// costs one branch per event.
	Obs *obs.Obs
	// Pool, when set, recycles packets at end-of-life points: link-loss
	// and router drops, middlebox Drop verdicts, and after an endpoint's
	// Deliver returns. Recycling is suppressed while Trace is attached,
	// because TraceEvents retain *Packet pointers. Only pool-owned
	// packets are recycled; heap packets pass through untouched.
	Pool *packet.Pool

	topo  *Topology
	nodes []Node

	// shapers holds the lazily built token buckets, indexed by directed
	// link. It stays nil on fabrics whose packets never cross a rated
	// link, so unshaped trials allocate nothing for shaping.
	shapers []*linkShaper

	// counts accumulates per-event totals as plain increments — the
	// fabric belongs to a single simulation, so no atomics are needed on
	// the hot path. FlushCounters folds them into the registry.
	counts [numEvents]uint64

	// lastAt is the virtual time of the most recent packet event; the
	// experiment runner reads it to close the teardown span (last wire
	// activity → trial end). One store per event, no allocation.
	lastAt time.Duration

	// lineageN is the wire-ID allocator for causal tracing: every
	// packet gets a fabric-unique ID the first time it is sent or
	// injected. Assignment is one compare and one increment, always on
	// — IDs must be stable whether or not a tracer is attached, so the
	// determinism guarantee (tracing on == tracing off) holds.
	lineageN uint32

	// ctx is the scratch Context handed to taps and processors; reusing
	// it keeps arrival allocation-free. Processors must not retain it
	// past their Process call (the prober copies it before scheduling).
	ctx Context
}

// NewFabric binds topology t to sim, with nothing attached yet.
func NewFabric(sim *Simulator, t *Topology) *Fabric {
	return &Fabric{Sim: sim, topo: t, nodes: make([]Node, len(t.nodes))}
}

// Node returns the attachment point of node id; attach taps and
// processors before traffic flows.
func (f *Fabric) Node(id int) *Node { return &f.nodes[id] }

// addrU32 orders addresses for flow canonicalization.
func addrU32(a packet.Addr) uint32 {
	return uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
}

// flowHash folds a packet's flow identity into a 64-bit FNV-1a hash,
// canonicalized so both directions of one flow hash identically (the
// selection is per flow, not per packet direction).
func (f *Fabric) flowHash(pkt *packet.Packet) uint64 {
	a, b := pkt.IP.Src, pkt.IP.Dst
	var pa, pb uint16
	switch {
	case pkt.TCP != nil:
		pa, pb = pkt.TCP.SrcPort, pkt.TCP.DstPort
	case pkt.UDP != nil:
		pa, pb = pkt.UDP.SrcPort, pkt.UDP.DstPort
	}
	if addrU32(b) < addrU32(a) || (a == b && pb < pa) {
		a, b = b, a
		pa, pb = pb, pa
	}
	const prime = 1099511628211
	h := uint64(14695981039346656037) ^ f.topo.ecmpSeed
	for _, x := range a {
		h = (h ^ uint64(x)) * prime
	}
	for _, x := range b {
		h = (h ^ uint64(x)) * prime
	}
	h = (h ^ uint64(pa)) * prime
	h = (h ^ uint64(pb)) * prime
	return h
}

// route picks the next hop leaving `from` toward the endpoint dir
// points at, or nil where there is none. Only branch points hash the
// flow. It runs once per hop, when the packet is emitted; the crossing
// event carries the chosen link to the far end.
func (f *Fabric) route(from int, dir Direction, pkt *packet.Packet) *hop {
	cands := f.topo.next[dir][from]
	switch len(cands) {
	case 0:
		return nil
	case 1:
		return &cands[0]
	}
	// Mix the node id in so independent branch points decide
	// independently, as separate hardware hash functions would.
	h := f.flowHash(pkt) ^ (uint64(from) * 0x9e3779b97f4a7c15)
	return &cands[h%uint64(len(cands))]
}

// trace records one packet event at node idx: the counter, lineage
// stamping at transmission points, a flight-recorder entry (per-hop
// "fwd" stays out, or the recorder would fill with it), and the
// optional trace hook.
func (f *Fabric) trace(idx, ev int, dir Direction, pkt *packet.Packet) {
	f.counts[ev]++
	f.lastAt = f.Sim.Now()
	if ev == evSend || ev == evInject {
		f.StampLineage(pkt)
	}
	if f.Obs != nil && ev != evFwd {
		var seq uint32
		var flags uint8
		if pkt.TCP != nil {
			seq = uint32(pkt.TCP.Seq)
			flags = pkt.TCP.Flags
		}
		f.Obs.TracePkt("netem", eventLabels[ev], pkt.Lin.ID, pkt.Lin.Parent, seq, flags, f.topo.nodes[idx].Label+" "+dir.String())
	}
	if f.Trace != nil {
		f.Trace(TraceEvent{Time: f.Sim.Now(), Where: f.topo.nodes[idx].Label, Event: eventLabels[ev], Dir: dir, Pkt: pkt})
	}
}

// StampLineage assigns pkt its fabric-unique wire ID if it does not
// have one yet, and returns the ID. The send/inject path calls it
// implicitly; the strategy engine calls it early so insertion packets
// crafted around an intercepted packet can record it as their parent
// before it ever reaches the wire.
func (f *Fabric) StampLineage(pkt *packet.Packet) uint32 {
	if pkt.Lin.ID == 0 {
		f.lineageN++
		pkt.Lin.ID = f.lineageN
	}
	return pkt.Lin.ID
}

// LastEventAt returns the virtual time of the most recent packet event
// (zero before any traffic).
func (f *Fabric) LastEventAt() time.Duration { return f.lastAt }

// FlushCounters folds the fabric's accumulated event counts into the
// observability registry and resets them. Call once per finished
// trial; a no-op when no Obs is attached.
func (f *Fabric) FlushCounters() {
	if f.Obs == nil {
		return
	}
	reg := f.Obs.Registry()
	for ev, n := range f.counts {
		reg.Add(eventCounters[ev], n)
		f.counts[ev] = 0
	}
}

// release recycles a pool-owned packet at an end-of-life point. With a
// Trace attached nothing is recycled: trace events hold the pointer.
func (f *Fabric) release(pkt *packet.Packet) {
	if f.Trace == nil {
		pkt.Release()
	}
}

// SendFromClient transmits pkt from the client endpoint.
func (f *Fabric) SendFromClient(pkt *packet.Packet) {
	f.trace(f.topo.client, evSend, ToServer, pkt)
	f.emitFrom(f.topo.client, ToServer, pkt, 0, false)
}

// SendFromServer transmits pkt from the server endpoint.
func (f *Fabric) SendFromServer(pkt *packet.Packet) {
	f.trace(f.topo.server, evSend, ToClient, pkt)
	f.emitFrom(f.topo.server, ToClient, pkt, 0, false)
}

// emitFrom schedules pkt's crossing of the link leaving `from` toward
// dir's endpoint. inject marks mid-path injections (forged packets,
// rebuilt datagrams, ICMP). The crossing rides a monomorphic packet
// event (AtPacket) carrying the routed link's index rather than a
// closure, so steady-state emission allocates nothing. On a rated link
// the token bucket adds queueing and serialization delay ahead of the
// propagation latency, or drops the packet at a full queue.
func (f *Fabric) emitFrom(from int, dir Direction, pkt *packet.Packet, extraDelay time.Duration, inject bool) {
	if inject {
		f.trace(from, evInject, dir, pkt)
	}
	h := f.route(from, dir, pkt)
	if h == nil {
		// No route onward (a dead-end node injecting the wrong way);
		// the packet silently expires here.
		f.trace(from, evDropProc, dir, pkt)
		f.release(pkt)
		return
	}
	if h.MTU > 0 && wireSize(pkt) > h.MTU {
		f.trace(from, evDropMTU, dir, pkt)
		f.release(pkt)
		return
	}
	delay := extraDelay + h.Latency
	if h.Rate > 0 {
		if f.shapers == nil {
			f.shapers = make([]*linkShaper, len(f.topo.links))
		}
		sh := f.shapers[h.link]
		if sh == nil {
			sh = newLinkShaper(h.Rate, h.Queue, h.RED)
			f.shapers[h.link] = sh
		}
		qd, ev := sh.admit(f.Sim, wireSize(pkt))
		if ev >= 0 {
			f.trace(from, ev, dir, pkt)
			f.release(pkt)
			return
		}
		delay += qd
	}
	f.Sim.AtPacket(delay, f, pkt, h.link, dir)
}

// HandlePacket implements PacketHandler: pkt finished crossing
// directed link `link`, which emitFrom routed. Loss is drawn from the
// simulation PRNG at fire time.
func (f *Fabric) HandlePacket(pkt *packet.Packet, link int, dir Direction) {
	h := &f.topo.links[link]
	if h.LossRate > 0 && f.Sim.Rand().Float64() < h.LossRate {
		f.trace(h.to, evDropLoss, dir, pkt)
		f.release(pkt)
		return
	}
	f.arriveAt(h.to, dir, pkt)
}

// arriveAt processes pkt at node idx: deliver at the target endpoint,
// else taps → router TTL handling → in-path processors → forward.
func (f *Fabric) arriveAt(idx int, dir Direction, pkt *packet.Packet) {
	if (idx == f.topo.client && dir == ToClient) || (idx == f.topo.server && dir == ToServer) {
		f.trace(idx, evDeliver, dir, pkt)
		if idx == f.topo.client {
			if f.Client != nil {
				f.Client.Deliver(pkt)
			}
		} else if f.Server != nil {
			f.Server.Deliver(pkt)
		}
		f.release(pkt)
		return
	}
	node := &f.nodes[idx]
	f.ctx.Sim, f.ctx.Net, f.ctx.Node = f.Sim, f, idx
	ctx := &f.ctx
	for _, tap := range node.Taps {
		tap.Process(ctx, pkt, dir)
	}
	if f.topo.nodes[idx].Router {
		// Routers validate the IP header checksum (RFC 1812 §5.2.2)
		// and, in this model, discard datagrams carrying IP options —
		// the §5.3 observation that IP-layer discrepancies "are often
		// dropped by routers or middleboxes" and therefore make poor
		// insertion packets. A header an earlier router verified, and
		// nothing since could rewrite, is not summed again.
		if !pkt.RouterVerify() {
			f.trace(idx, evDropIPck, dir, pkt)
			f.release(pkt)
			return
		}
		if len(pkt.IP.Options) > 0 {
			f.trace(idx, evDropIPOpt, dir, pkt)
			f.release(pkt)
			return
		}
		if pkt.IP.TTL <= 1 {
			f.trace(idx, evDropTTL, dir, pkt)
			f.sendTimeExceeded(idx, dir, pkt)
			f.release(pkt)
			return
		}
		pkt.IP.DecrementTTL()
	}
	if len(node.Processors) > 0 {
		// In-path processors may rewrite the header: the next router
		// verifies it afresh.
		pkt.ClearVerified()
	}
	for _, proc := range node.Processors {
		if proc.Process(ctx, pkt, dir) == Drop {
			if f.Obs != nil {
				// Attribute the drop to the middlebox and the packet
				// type — §3.4's "middlebox ate the insertion packet".
				f.Obs.Count("middlebox.drop." + proc.Name())
				f.Obs.Count("middlebox.drop-kind." + pktKind(pkt))
			}
			f.trace(idx, evDropProc, dir, pkt)
			f.release(pkt)
			return
		}
	}
	f.trace(idx, evFwd, dir, pkt)
	f.emitFrom(idx, dir, pkt, 0, false)
}

// sendTimeExceeded emits an ICMP Time-Exceeded from node idx back
// toward the packet's source. With a pool attached the reply reuses
// pooled storage; the heap fallback inside TimeExceededPacket handles
// the rest.
func (f *Fabric) sendTimeExceeded(idx int, dir Direction, orig *packet.Packet) {
	reply := f.Pool.TimeExceededPacket(orig, nodeAddr(idx))
	reply.Lin = packet.Lineage{Origin: packet.OriginRouter, Parent: orig.Lin.ID}
	f.emitFrom(idx, dir.Flip(), reply, 0, true)
}

// nodeAddr is the address router node id answers Time-Exceeded from,
// stable so traceroute-style measurements can tell routers apart.
// Nodes are numbered from 0 including the client, so on a chain
// router i answers from nodeAddr(i+1).
func nodeAddr(id int) packet.Addr {
	return packet.AddrFrom4(10, 254, byte(id>>8), byte(id))
}

// Route resolves the node labels a packet of pkt's flow traverses
// toward dir's endpoint, starting at the opposite one, under the
// current ECMP tables — the introspection `-what topo`'s demo and the
// routing tests use. NewTopology guarantees each endpoint reaches the
// other, so every node on the way has a next hop.
func (f *Fabric) Route(dir Direction, pkt *packet.Packet) []string {
	at, dst := f.topo.client, f.topo.server
	if dir == ToClient {
		at, dst = dst, at
	}
	names := []string{f.topo.nodes[at].Label}
	for at != dst {
		at = f.route(at, dir, pkt).to
		names = append(names, f.topo.nodes[at].Label)
	}
	return names
}

// Describe renders the nodes in declaration order as a one-line
// diagram, each with its taps and processors — on a chain, the Fig. 1
// picture of the path. A graph's links live in its topo spec.
func (f *Fabric) Describe() string {
	var b strings.Builder
	for i, v := range f.topo.nodes {
		if i > 0 {
			b.WriteString(" — ")
		}
		b.WriteString(v.Label)
		var names []string
		for _, tap := range f.nodes[i].Taps {
			names = append(names, "tap:"+tap.Name())
		}
		for _, proc := range f.nodes[i].Processors {
			names = append(names, proc.Name())
		}
		if len(names) > 0 {
			fmt.Fprintf(&b, "[%s]", strings.Join(names, ","))
		}
	}
	return b.String()
}
