package gfw

import (
	"math/rand"
	"time"

	"intango/internal/dpi"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
)

// Event is one observable state transition inside a device; tests and
// the probing tool subscribe to them. Pkt is the causal-tracing wire
// ID of the packet that caused the transition (zero when unknown).
type Event struct {
	Kind   string
	Tuple  packet.FourTuple
	Detail string
	Pkt    uint32
}

// Device is one GFW DPI instance wiretapping a hop.
type Device struct {
	name string
	cfg  Config
	rng  *rand.Rand

	matcher *dpi.Matcher
	tcbs    map[packet.FourTuple]*tcb
	// spare holds the TCBs of the trials before, with their streams,
	// while the simulator lends.
	spare netem.Spares[tcb]
	// frag is made at the first fragment, and the block tables at the
	// first block: most trials see neither.
	frag *packet.Reassembler

	// pairBlock maps a canonical (client,server) address pair to the
	// virtual time its 90-second block expires.
	pairBlock map[[2]packet.Addr]time.Duration
	ipBlock   map[packet.Addr]bool
	// filter is the in-path companion (IPFilter).
	filter ipFilter

	// Per-device sampled behaviours (§4: consistent per pair within a
	// period, inconsistent across periods/devices).
	rstResyncs  bool
	segLastWins bool

	// probes tracks in-flight active-prober connections (§7.3).
	probes    map[packet.FourTuple]*probeState
	proberSeq int

	// type-2 injector counters: cyclically increasing TTL and window.
	t2TTL uint8
	t2Win uint16

	// Stage marks for span profiling, all on the virtual clock:
	// FirstPktAt/LastPktAt bracket the traffic this device saw, and
	// VerdictAt stamps its first enforcement action (injection or
	// block), zero if it never enforced. now caches the simulation
	// clock at the top of Process so eventPkt can stamp verdicts
	// without threading a Context through every call site.
	FirstPktAt time.Duration
	LastPktAt  time.Duration
	VerdictAt  time.Duration
	sawPkt     bool
	now        time.Duration

	// OnEvent, when set, observes device events.
	OnEvent func(Event)
	// Stats counts events by kind; it is made at the first event.
	Stats map[string]int
	// Obs, when set, mirrors every device event into the shared
	// observability layer as a "gfw.<kind>" counter and a
	// flight-recorder entry. Nil (the default) costs one branch.
	Obs *obs.Obs
	// labels and notes cache those counter names and entry notes.
	labels map[string]string
	notes  map[string]string
}

// NewDevice builds a device named name. The rng drives all sampled
// behaviour and must be the simulation's PRNG (or a derived one) for
// deterministic runs.
func NewDevice(name string, cfg Config, rng *rand.Rand) *Device {
	d := new(Device)
	d.Reset(name, cfg, rng)
	return d
}

// Reset returns d to NewDevice(name, cfg, rng)'s state, drawing its
// sampled behaviours from rng as NewDevice does: no TCBs, blocks,
// probes, stats or hooks. It keeps the storage of its tables and label
// caches and, while the simulator lends, the TCBs it made with their
// streams (netem.Spares), which new TCBs reuse: a device reset for each
// trial tracks its flows without allocating. Every TCB made before the
// reset is dead. Reset on a zero Device is NewDevice.
func (d *Device) Reset(name string, cfg Config, rng *rand.Rand) {
	d.spare.Rewind()
	clear(d.tcbs)
	clear(d.pairBlock)
	clear(d.ipBlock)
	clear(d.probes)
	clear(d.Stats)
	if d.frag != nil {
		d.frag.Reset(packet.FirstWins)
	}
	if name != d.name {
		clear(d.notes) // they name the device
	}
	cfg = cfg.withDefaults()
	*d = Device{
		name: name, cfg: cfg, rng: rng, matcher: dpi.NewMatcher(cfg.Keywords),
		tcbs: d.tcbs, spare: d.spare, frag: d.frag,
		pairBlock: d.pairBlock, ipBlock: d.ipBlock, probes: d.probes,
		t2TTL: 64, t2Win: 8192,
		Stats: d.Stats, labels: d.labels, notes: d.notes,
	}
	d.filter.d = d
	d.rstResyncs = rng.Float64() < cfg.ResyncOnRSTProb
	// Khattak et al. measured the old model preferring the later copy
	// of overlapping out-of-order segments unconditionally; only the
	// evolved deployment is heterogeneous (Config.SegmentLastWinsProb).
	d.segLastWins = cfg.Model == ModelKhattak2013 || rng.Float64() < cfg.SegmentLastWinsProb
}

// Name implements netem.Processor.
func (d *Device) Name() string { return d.name }

// Config returns the device's effective configuration.
func (d *Device) Config() Config { return d.cfg }

// RSTResyncs reports the device's sampled RST behaviour: true means
// RSTs send TCBs to the resynchronization state instead of tearing
// them down (Hypothesized New Behavior 3).
func (d *Device) RSTResyncs() bool { return d.rstResyncs }

// SetRSTResyncs pins the sampled RST behaviour. The experiment harness
// uses it to keep a device's behaviour stable across trials for a
// client/server pair, which is what the paper observed (§4: consistent
// during a period, inconsistent across periods).
func (d *Device) SetRSTResyncs(v bool) { d.rstResyncs = v }

// SetSegmentLastWins pins the sampled segment-overlap behaviour (see
// Config.SegmentLastWinsProb).
func (d *Device) SetSegmentLastWins(v bool) { d.segLastWins = v }

// SetObs mirrors device events into the shared observability layer
// (censor.Instance).
func (d *Device) SetObs(o *obs.Obs) { d.Obs = o }

// Stat returns the count of one event kind (censor.Instance).
func (d *Device) Stat(kind string) int { return d.Stats[kind] }

// ClearStats resets the event counters (censor.Instance); series
// runners reuse one device across trials.
func (d *Device) ClearStats() {
	for k := range d.Stats {
		delete(d.Stats, k)
	}
}

// Marks returns the span-profiling stamps (censor.Instance).
func (d *Device) Marks() (first, verdict, last time.Duration) {
	return d.FirstPktAt, d.VerdictAt, d.LastPktAt
}

// Filter returns the in-path companion processor (censor.Instance);
// for the GFW engine that is the active-probing IP blocklist.
func (d *Device) Filter() netem.Processor { return d.IPFilter() }

func (d *Device) event(kind string, tuple packet.FourTuple, detail string) {
	d.eventPkt(kind, tuple, nil, detail)
}

// count adds n to the count of kind.
func (d *Device) count(kind string, n int) {
	if d.Stats == nil {
		d.Stats = make(map[string]int)
	}
	d.Stats[kind] += n
}

// verdictKinds are the event kinds that count as enforcement — the
// same set classify() in the experiment runner treats as censorship.
var verdictKinds = map[string]bool{
	"inject-type1":  true,
	"inject-type2":  true,
	"block-enforce": true,
	"forged-synack": true,
}

// eventPkt is event keyed to the packet that caused the state
// transition, so the flight recorder (and the causal tracer tapping
// it) can tie censor state changes back to specific wire packets.
func (d *Device) eventPkt(kind string, tuple packet.FourTuple, cause *packet.Packet, detail string) {
	d.count(kind, 1)
	if d.VerdictAt == 0 && verdictKinds[kind] {
		d.VerdictAt = d.now
	}
	id := lineageOf(cause)
	if d.Obs != nil {
		d.Obs.Count(d.label(kind))
		d.Obs.TracePkt("gfw", kind, id, 0, 0, 0, d.note(detail))
	}
	if d.OnEvent != nil {
		d.OnEvent(Event{Kind: kind, Tuple: tuple, Detail: detail, Pkt: id})
	}
}

// label returns the counter name of an event kind ("gfw.<kind>"),
// built on the kind's first event.
func (d *Device) label(kind string) string {
	l, ok := d.labels[kind]
	if !ok {
		if d.labels == nil {
			d.labels = make(map[string]string)
		}
		l = "gfw." + kind
		d.labels[kind] = l
	}
	return l
}

// maxNotes bounds the flight-recorder notes a device keeps built: most
// details are a fixed vocabulary, but a few carry a domain or an
// address, and a long-lived device must not cache one per name.
const maxNotes = 64

// note returns the flight-recorder note of an event with detail: the
// device's name, then the detail if any.
func (d *Device) note(detail string) string {
	if detail == "" {
		return d.name
	}
	n, ok := d.notes[detail]
	if !ok {
		n = d.name + " " + detail
		if len(d.notes) < maxNotes {
			if d.notes == nil {
				d.notes = make(map[string]string)
			}
			d.notes[detail] = n
		}
	}
	return n
}

// lineageOf resolves the wire ID a GFW event should key on. A
// reassembled whole datagram never went on the wire itself (ID zero);
// it inherits the completing fragment's identity via Parent.
func lineageOf(pkt *packet.Packet) uint32 {
	if pkt == nil {
		return 0
	}
	if pkt.Lin.ID != 0 {
		return pkt.Lin.ID
	}
	return pkt.Lin.Parent
}

// Process implements netem.Processor as an on-path tap: it always
// passes and never mutates pkt.
func (d *Device) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	d.now = ctx.Sim.Now()
	if !d.sawPkt {
		d.sawPkt = true
		d.FirstPktAt = d.now
	}
	d.LastPktAt = d.now
	switch {
	case pkt.UDP != nil:
		d.processUDP(ctx, pkt)
	case pkt.TCP != nil || pkt.IP.IsFragment():
		d.processTCPDatagram(ctx, pkt)
	}
	return netem.Pass
}

// processTCPDatagram handles fragment reassembly before TCP tracking.
func (d *Device) processTCPDatagram(ctx *netem.Context, pkt *packet.Packet) {
	if pkt.IP.IsFragment() {
		// The GFW reassembles IP fragments itself, preferring the first
		// copy of overlapping fragment data (§3.2). The reassembler
		// only reads the fragment, copying what it keeps.
		if d.frag == nil {
			d.frag = packet.NewReassembler(packet.FirstWins)
		}
		whole, err := d.frag.AddAt(pkt, ctx.Sim.Now())
		d.countFragEvictions()
		if err != nil || whole == nil {
			return
		}
		// The whole datagram is internal to the device — it inherits
		// the completing fragment's wire identity as its parent, and the
		// reassembly decision is audited against that fragment. Its
		// life ends here.
		whole.Lin = packet.Lineage{Parent: pkt.Lin.ID, Origin: pkt.Lin.Origin}
		d.eventPkt("frag-complete", pkt.Tuple(), pkt, "first-wins")
		if whole.TCP != nil {
			d.processTCP(ctx, whole)
		}
		ctx.Net.Release(whole)
		return
	}
	if pkt.TCP == nil {
		return
	}
	d.processTCP(ctx, pkt)
}

// countFragEvictions surfaces reassembler evictions (TTL or series-cap)
// as device stats and an obs counter.
func (d *Device) countFragEvictions() {
	n := d.frag.TakeEvicted()
	if n == 0 {
		return
	}
	d.count("frag-evict", int(n))
	if d.Obs != nil {
		d.Obs.Registry().Add("gfw.frag-evict", n)
	}
}

func (d *Device) processTCP(ctx *netem.Context, pkt *packet.Packet) {
	// Active-probe traffic is the censor's own; it is steered to the
	// prober state machine, never to flow tracking.
	if d.proberPacket(ctx, pkt) {
		return
	}

	// §8 countermeasure ablations: a hardened device validates fields
	// the measured GFW does not.
	if d.cfg.ValidateTCPChecksum && !pkt.TCP.VerifyChecksum(pkt.IP.Src, pkt.IP.Dst, pkt.Payload) {
		d.eventPkt("harden-drop-checksum", pkt.Tuple(), pkt, "")
		return
	}
	if d.cfg.ValidateMD5 && pkt.TCP.HasMD5() {
		d.eventPkt("harden-drop-md5", pkt.Tuple(), pkt, "")
		return
	}

	tuple := pkt.Tuple()
	key := tuple.Canonical()

	if d.enforceBlocklist(ctx, pkt) {
		return
	}

	t := d.tcbs[key]
	tcp := pkt.TCP
	if t == nil {
		d.maybeCreateTCB(ctx, key, pkt)
		return
	}

	if t.fromClient(pkt) {
		d.fromClientSide(ctx, key, t, pkt)
	} else {
		d.fromServerSide(ctx, key, t, pkt)
	}
	_ = tcp
}

// maybeCreateTCB applies Hypothesized New Behavior 1: a TCB is created
// on SYN (both models) or on SYN/ACK (evolved model only), the latter
// with reversed orientation.
func (d *Device) maybeCreateTCB(ctx *netem.Context, key packet.FourTuple, pkt *packet.Packet) {
	tcp := pkt.TCP
	switch {
	case tcp.HasFlag(packet.FlagSYN) && !tcp.HasFlag(packet.FlagACK):
		t := d.newTCB(ctx.Sim, key, tcb{
			client: pkt.IP.Src, cport: tcp.SrcPort,
			server: pkt.IP.Dst, sport: tcp.DstPort,
			clientISN: tcp.Seq, haveISN: true,
			clientNext: tcp.Seq.Add(1), haveClient: true,
			synCount: 1,
		})
		t.stream.rebase(t.clientNext)
		d.eventPkt("tcb-create", key, pkt, "syn")
	case tcp.HasFlag(packet.FlagSYN) && tcp.HasFlag(packet.FlagACK) && d.cfg.Model == ModelEvolved2017:
		// The GFW assumes a SYN/ACK's source is the server (§5.2).
		t := d.newTCB(ctx.Sim, key, tcb{
			client: pkt.IP.Dst, cport: tcp.DstPort,
			server: pkt.IP.Src, sport: tcp.SrcPort,
			clientNext: tcp.Ack, haveClient: true,
			serverNext: tcp.Seq.Add(1), haveServer: true,
			synAckCount: 1,
		})
		t.stream.rebase(t.clientNext)
		d.eventPkt("tcb-create-reversed", key, pkt, "synack")
	}
}

// newTCB tracks key with the shadow connection init, on a spare's
// storage when there is one, with a new client-stream reassembler and
// the device's sampled overlap behaviour.
func (d *Device) newTCB(sim *netem.Simulator, key packet.FourTuple, init tcb) *tcb {
	t := d.spare.Get(sim.Lends())
	st, resp, pending := t.stream, t.respStream, t.pending
	clear(pending)
	*t = init
	t.lastWins = d.segLastWins
	t.stream = st.reset(sim, d.cfg.ReassemblyWindow, d.matcher, true)
	t.respStream, t.pending = resp, pending[:0]
	if d.tcbs == nil {
		d.tcbs = make(map[packet.FourTuple]*tcb)
	}
	d.tcbs[key] = t
	return t
}

// fromClientSide handles packets traveling from the TCB's notion of the
// client toward its notion of the server.
func (d *Device) fromClientSide(ctx *netem.Context, key packet.FourTuple, t *tcb, pkt *packet.Packet) {
	tcp := pkt.TCP

	// The client's acknowledgments reveal the server-side sequence.
	if tcp.HasFlag(packet.FlagACK) && !tcp.HasFlag(packet.FlagSYN) {
		if !t.haveServer || tcp.Ack.After(t.serverNext) {
			t.serverNext = tcp.Ack
			t.haveServer = true
		}
	}

	switch {
	case tcp.HasFlag(packet.FlagRST):
		d.handleRST(key, t, pkt)
		return
	case tcp.HasFlag(packet.FlagSYN) && !tcp.HasFlag(packet.FlagACK):
		t.synCount++
		if d.cfg.Model == ModelEvolved2017 && t.synCount >= 2 {
			d.enterResync(key, t, pkt, "multiple-syn")
		}
		return
	case tcp.HasFlag(packet.FlagFIN) && d.cfg.Model == ModelKhattak2013:
		// The old model tears down on FIN; the evolved model does not
		// (§4, Prior Assumption 3).
		d.teardown(key, t, pkt, "fin")
		return
	}

	if len(pkt.Payload) == 0 {
		return
	}

	// §8 hardened mode: trust client data only once the server has
	// acknowledged it. Buffer here; commits happen when acknowledgments
	// flow back (fromServerSide).
	if d.cfg.TrustDataAfterServerACK {
		if len(t.pending) < maxPendingSegs {
			t.pending = append(t.pending, pendingSeg{seq: tcp.Seq, pkt: pkt.Clone()})
		}
		return
	}

	d.ingestClientData(ctx, key, t, pkt)
}

// ingestClientData runs resynchronization, reassembly and detection on
// one client data segment.
func (d *Device) ingestClientData(ctx *netem.Context, key packet.FourTuple, t *tcb, pkt *packet.Packet) {
	tcp := pkt.TCP

	// Hypothesized New Behavior 2: in the resynchronization state the
	// TCB adopts the sequence number of the next client data packet.
	if t.state == stResync {
		t.clientNext = tcp.Seq
		t.stream.rebase(tcp.Seq)
		t.state = stTracking
		d.eventPkt("resync-applied", key, pkt, "client-data")
	}

	// A type-1 device scans packets individually, with no reassembly:
	// it only examines the segment sitting at the expected in-order
	// position. Data that shadows already-consumed bytes (the prefill
	// evasion) or arrives out of order is never scanned by it.
	wasInOrder := t.stream.started && tcp.Seq == t.stream.nextSeq()
	matches := t.stream.insert(tcp.Seq, pkt.Payload, t.lastWins)
	t.clientNext = t.stream.nextSeq()

	d.inspect(ctx, key, t, pkt, wasInOrder, matches)
}

// commitAcknowledged releases buffered client data covered by a server
// acknowledgment into the detection pipeline (TrustDataAfterServerACK).
func (d *Device) commitAcknowledged(ctx *netem.Context, key packet.FourTuple, t *tcb, ack packet.Seq) {
	if len(t.pending) == 0 {
		return
	}
	keep := t.pending[:0]
	for _, ps := range t.pending {
		if ps.pkt.EndSeq().AtOrBefore(ack) {
			d.ingestClientData(ctx, key, t, ps.pkt)
		} else {
			keep = append(keep, ps)
		}
	}
	t.pending = keep
}

// fromServerSide handles packets from the TCB's notion of the server.
func (d *Device) fromServerSide(ctx *netem.Context, key packet.FourTuple, t *tcb, pkt *packet.Packet) {
	tcp := pkt.TCP

	switch {
	case tcp.HasFlag(packet.FlagRST):
		d.handleRST(key, t, pkt)
		return
	case tcp.HasFlag(packet.FlagSYN) && tcp.HasFlag(packet.FlagACK):
		t.synAckCount++
		if d.cfg.Model == ModelEvolved2017 {
			if t.state == stResync {
				// The SYN/ACK resynchronizes the TCB (§4).
				t.clientNext = tcp.Ack
				t.serverNext = tcp.Seq.Add(1)
				t.haveServer = true
				t.stream.rebase(t.clientNext)
				t.state = stTracking
				d.eventPkt("resync-applied", key, pkt, "synack")
				return
			}
			if t.synAckCount >= 2 {
				d.enterResync(key, t, pkt, "multiple-synack")
				return
			}
			if t.haveISN && tcp.Ack != t.clientISN.Add(1) {
				d.enterResync(key, t, pkt, "synack-ack-mismatch")
				return
			}
		}
		// First consistent SYN/ACK: adopt the server's numbering. Only
		// the evolved model also re-confirms the client-side sequence
		// from the SYN/ACK's ack (§5.2) — the old model keeps whatever
		// the first SYN said, which is precisely why the 2013 fake-SYN
		// evasion worked against it.
		t.serverNext = tcp.Seq.Add(1)
		t.haveServer = true
		if d.cfg.Model == ModelEvolved2017 {
			t.clientNext = tcp.Ack
			if !t.stream.started || t.stream.base != tcp.Ack {
				t.stream.rebase(tcp.Ack)
			}
		}
		return
	case tcp.HasFlag(packet.FlagFIN) && d.cfg.Model == ModelKhattak2013:
		d.teardown(key, t, pkt, "fin-server")
		return
	}

	if n := len(pkt.Payload); n > 0 {
		end := tcp.Seq.Add(n)
		if !t.haveServer || end.After(t.serverNext) {
			t.serverNext = end
			t.haveServer = true
		}
		// Response censorship (where still deployed, §3.3): scan the
		// server→client stream too — this is what catches sensitive
		// keywords copied into HTTP 301 Location headers.
		if d.cfg.ResponseCensorship && !t.immune && !t.detected {
			if !t.respOn {
				t.respOn = true
				t.respStream = t.respStream.reset(ctx.Sim, d.cfg.ReassemblyWindow, d.matcher, false)
				t.respStream.rebase(tcp.Seq)
			}
			if matches := t.respStream.insert(tcp.Seq, pkt.Payload, false); len(matches) > 0 {
				t.detected = true
				d.eventPkt("detect-response", key, pkt, "")
				d.injectResets(ctx, t, d.cfg.Type1, d.cfg.Type2, pkt)
				if d.cfg.Type2 {
					d.blockPair(ctx, t.client, t.server, pkt)
				}
			}
		}
	}

	// Hardened mode: server acknowledgments release buffered client
	// data into the detection pipeline.
	if d.cfg.TrustDataAfterServerACK && tcp.HasFlag(packet.FlagACK) {
		d.commitAcknowledged(ctx, key, t, tcp.Ack)
	}
}

// handleRST applies Hypothesized New Behavior 3.
func (d *Device) handleRST(key packet.FourTuple, t *tcb, pkt *packet.Packet) {
	if d.cfg.Model == ModelEvolved2017 && d.rstResyncs {
		d.enterResync(key, t, pkt, "rst")
		return
	}
	d.teardown(key, t, pkt, "rst")
}

func (d *Device) enterResync(key packet.FourTuple, t *tcb, cause *packet.Packet, why string) {
	if t.state != stResync {
		t.state = stResync
		d.eventPkt("resync", key, cause, why)
	}
}

func (d *Device) teardown(key packet.FourTuple, t *tcb, cause *packet.Packet, why string) {
	delete(d.tcbs, key)
	d.eventPkt("teardown", key, cause, why)
}

// TCBState reports the shadow state for a connection, for probing tools
// and tests.
func (d *Device) TCBState(tuple packet.FourTuple) (string, bool) {
	t, ok := d.tcbs[tuple.Canonical()]
	if !ok {
		return "", false
	}
	return t.state.String(), true
}

// TCBOrientation reports who the device believes the client is.
func (d *Device) TCBOrientation(tuple packet.FourTuple) (client packet.Addr, ok bool) {
	t, found := d.tcbs[tuple.Canonical()]
	if !found {
		return packet.Addr{}, false
	}
	return t.client, true
}

// TCBCount returns the number of live shadow connections.
func (d *Device) TCBCount() int { return len(d.tcbs) }
