package core

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"intango/internal/packet"
)

// This file is the imperative half of the strategy layer: primitive
// actions transform an emission *plan* — an ordered list of pieces that
// starts as just the intercepted packet — and a Compiled executor runs
// a Spec's rules against each outbound packet. All per-connection
// trigger state lives on the Flow (execState), never on the strategy
// value, so one compiled instance can serve any number of flows.

// InjectKind selects what kind of crafted insertion packet an
// InjectAction adds to the plan.
type InjectKind int

const (
	// InjectSYN is the fake-sequence SYN of TCB creation / resync (§3.2,
	// §5.1).
	InjectSYN InjectKind = iota
	// InjectSYNACK is the TCB Reversal SYN/ACK (§5.2).
	InjectSYNACK
	// InjectDesync is the §5.1 desynchronization packet: one junk byte
	// far out of window.
	InjectDesync
	// InjectPrefill is the in-order junk copy shadowing the real
	// segment (§3.2 in-order data overlapping).
	InjectPrefill
)

// String names the kind as it appears in spec text.
func (k InjectKind) String() string {
	switch k {
	case InjectSYN:
		return "syn"
	case InjectSYNACK:
		return "synack"
	case InjectDesync:
		return "desync"
	case InjectPrefill:
		return "prefill"
	default:
		return "inject(?)"
	}
}

func parseInjectKind(s string) (InjectKind, bool) {
	for _, k := range []InjectKind{InjectSYN, InjectSYNACK, InjectDesync, InjectPrefill} {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// flagsToken renders teardown/tamper flags in spec vocabulary.
func flagsToken(flags uint8) string {
	switch flags {
	case packet.FlagRST:
		return "rst"
	case packet.FlagRST | packet.FlagACK:
		return "rstack"
	case packet.FlagFIN:
		return "fin"
	case packet.FlagFIN | packet.FlagACK:
		return "finack"
	}
	return packet.FlagString(flags)
}

func parseFlagsToken(s string) (uint8, bool) {
	switch s {
	case "rst":
		return packet.FlagRST, true
	case "rstack":
		return packet.FlagRST | packet.FlagACK, true
	case "fin":
		return packet.FlagFIN, true
	case "finack":
		return packet.FlagFIN | packet.FlagACK, true
	}
	return 0, false
}

// --- the emission plan actions transform ---

type pieceRole int

const (
	roleInsertion pieceRole = iota
	roleReal                // the intercepted packet, not yet fragmented
	roleHead                // first fragment/segment of the real packet
	roleTail                // later fragment/segment of the real packet
	roleDecoy               // junk copy of a fragment, sent as real traffic
)

type piece struct {
	em   Emission
	role pieceRole
}

// plan is the mutable emission sequence a rule's actions build up. A
// flow keeps one in its exec state and the executor resets it for each
// packet a rule fires on, so the plan and its scratch reuse their
// storage from segment to segment.
type plan struct {
	f      *Flow
	src    *packet.Packet // the intercepted packet, untouched
	pieces []piece
	// crafter identifies the canonical spec text of the action currently
	// applying, interned at compile time; every packet an action adds
	// to the plan is stamped with it so traces can name the exact spec
	// piece that crafted each wire packet.
	crafter packet.CrafterRef

	// Scratch of the actions that cut the real packet: the fragments
	// or segments of FragmentAction, and the pieces FragmentAction and
	// DuplicateAction insert.
	frags []*packet.Packet
	spare []piece
}

// reset starts the plan over for pkt, leaving the plan's storage for
// reuse.
func (pl *plan) reset(f *Flow, pkt *packet.Packet) *plan {
	pl.f, pl.src = f, pkt
	pl.pieces = append(pl.pieces[:0], piece{em: real(pkt), role: roleReal})
	return pl
}

// emissions returns the plan in the engine's emissions buffer and lets
// go of its packets, which the buffer now holds.
func (pl *plan) emissions() []Emission {
	var out []Emission
	if pl.f.out != nil {
		out = (*pl.f.out)[:0]
	}
	for _, pc := range pl.pieces {
		out = append(out, pc.em)
	}
	if pl.f.out != nil {
		*pl.f.out = out
	}
	clear(pl.pieces)
	pl.f, pl.src = nil, nil
	return out
}

// drop releases the packet of a piece an action replaced, unless it is
// the intercepted packet, which the engine releases once the strategy
// returns. The plan made the piece and never emitted it, so no tracer
// has seen it: it is released directly, not through Fabric.Release.
func (pl *plan) drop(p *packet.Packet) {
	if p != pl.src {
		p.Release()
	}
}

// addInsertion appends a crafted packet after any existing insertions
// but before the plan's traffic, preserving the order insertions were
// requested in (the wire order the monolithic strategies used).
func (pl *plan) addInsertion(p *packet.Packet) {
	p.Lin.Origin = packet.OriginStrategy
	p.Lin.Parent = pl.src.Lin.ID
	p.Lin.Crafter = pl.crafter
	at := 0
	for at < len(pl.pieces) && pl.pieces[at].role == roleInsertion {
		at++
	}
	pc := piece{em: insertion(p), role: roleInsertion}
	pl.pieces = append(pl.pieces, piece{})
	copy(pl.pieces[at+1:], pl.pieces[at:])
	pl.pieces[at] = pc
}

// --- primitive actions ---

// Action is one primitive step of a rule's pipeline. The set is closed
// (actions carry unexported methods); compose strategies by combining
// these values, not by implementing new ones.
type Action interface {
	// apply transforms the emission plan.
	apply(pl *plan)
	// encode renders the canonical spec text.
	encode() string
}

// InjectAction adds a crafted insertion packet to the plan, built by
// the same helpers the paper's strategies share and stamped with Disc
// via Env.Apply.
type InjectAction struct {
	Kind InjectKind
	Disc Discrepancy
}

func (a InjectAction) apply(pl *plan) {
	f := pl.f
	var p *packet.Packet
	switch a.Kind {
	case InjectSYN:
		p = fakeSYN(f, a.Disc)
	case InjectSYNACK:
		p = fakeSYNACK(f, a.Disc)
	case InjectDesync:
		// The desync packet needs no discrepancy: its far-out-of-window
		// sequence already makes the server ignore it (§5.1). Honour an
		// explicit one anyway so mutated specs stay expressible.
		p = desyncPacket(f)
		if a.Disc != DiscNone {
			p = f.Env.Apply(p, a.Disc)
		}
	case InjectPrefill:
		p = prefillPacket(f, pl.src, a.Disc)
	default:
		return
	}
	pl.addInsertion(p)
}

func (a InjectAction) encode() string {
	s := "inject(" + a.Kind.String()
	if a.Disc != DiscNone {
		s += ",disc=" + a.Disc.String()
	}
	return s + ")"
}

// TeardownAction adds a RST/RST-ACK/FIN insertion packet carrying the
// connection's live sequence numbers (§3.2 TCB teardown).
type TeardownAction struct {
	Flags uint8
	Disc  Discrepancy
}

func (a TeardownAction) apply(pl *plan) {
	pl.addInsertion(teardownPacket(pl.f, a.Flags, a.Disc))
}

func (a TeardownAction) encode() string {
	s := "teardown(flags=" + flagsToken(a.Flags)
	if a.Disc != DiscNone {
		s += ",disc=" + a.Disc.String()
	}
	return s + ")"
}

// FragLayer selects the granularity FragmentAction splits at.
type FragLayer int

const (
	// LayerIP fragments at the IP layer so the first fragment carries
	// only the TCP header and every payload byte lands in later
	// fragments.
	LayerIP FragLayer = iota
	// LayerTCP re-segments the payload at byte offset At into separate
	// TCP packets.
	LayerTCP
)

// FragmentAction splits the plan's real packet into head + tail pieces.
// It is a no-op if the packet is already fragmented or has no payload
// to split.
type FragmentAction struct {
	Layer FragLayer
	// At is the TCP split offset for LayerTCP. For LayerIP it sets the
	// fragment data size in bytes (rounded down to the 8-byte fragment
	// grid); zero keeps the default header-sized fragments, whose head
	// carries no payload at all. Larger chunks trade that property for
	// fewer fragments — what a sustained per-segment strategy needs to
	// survive a finite router queue.
	At int
}

func (a FragmentAction) apply(pl *plan) {
	i := slices.IndexFunc(pl.pieces, func(pc piece) bool { return pc.role == roleReal })
	if i < 0 {
		return
	}
	pkt := pl.pieces[i].em.Pkt
	f := pl.f
	frags := pl.frags[:0]
	switch a.Layer {
	case LayerIP:
		// Fragment so the first fragment carries only the TCP
		// header: all payload bytes (and hence the keyword, wherever
		// it sits) land in later fragments. An explicit At overrides
		// the chunk size (never below the header grid).
		maxData := (pkt.TCP.HeaderLen() + 7) &^ 7
		if d := a.At &^ 7; d > maxData {
			maxData = d
		}
		fr, err := f.pool.Fragment(frags, pkt, packet.IPv4HeaderLen+maxData)
		if err != nil {
			return
		}
		if len(fr) < 2 {
			// The datagram fits one fragment: drop the copy, which
			// was never emitted and no tracer has seen (see drop).
			fr[0].Release()
			return
		}
		frags = fr
	case LayerTCP:
		if len(pkt.Payload) == 0 {
			return
		}
		k := a.At
		if k >= len(pkt.Payload) {
			k = len(pkt.Payload) / 2
		}
		if k <= 0 {
			return
		}
		frags = append(frags,
			f.pool.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
				packet.FlagPSH|packet.FlagACK, pkt.TCP.Seq, f.RcvNxt, pkt.Payload[:k]),
			f.pool.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
				packet.FlagPSH|packet.FlagACK, pkt.TCP.Seq.Add(k), f.RcvNxt, pkt.Payload[k:]))
	}
	tails := pl.spare[:0]
	for j, fr := range frags {
		fr.Lin = packet.Lineage{Origin: packet.OriginStrategy, Parent: pl.src.Lin.ID, Crafter: pl.crafter}
		if j > 0 {
			tails = append(tails, piece{em: real(fr), role: roleTail})
		}
	}
	pl.drop(pkt)
	pl.pieces[i] = piece{em: real(frags[0]), role: roleHead}
	pl.pieces = slices.Insert(pl.pieces, i+1, tails...)
	clear(frags)
	clear(tails)
	pl.frags, pl.spare = frags[:0], tails[:0]
}

func (a FragmentAction) encode() string {
	if a.Layer == LayerTCP {
		at := a.At
		if at == 0 {
			at = 4
		}
		return "fragment(tcp,at=" + strconv.Itoa(at) + ")"
	}
	if a.At > 0 {
		return "fragment(ip,at=" + strconv.Itoa(a.At) + ")"
	}
	return "fragment(ip)"
}

// ReorderAction moves the head piece after the tails: the §3.2
// out-of-order trick of sending later data first and filling the gap
// last. A no-op until FragmentAction has produced a head.
type ReorderAction struct{}

func (ReorderAction) apply(pl *plan) {
	head := -1
	for i, pc := range pl.pieces {
		if pc.role == roleHead {
			head = i
			break
		}
	}
	if head < 0 {
		return
	}
	hp := pl.pieces[head]
	rest := append(pl.pieces[:head], pl.pieces[head+1:]...)
	pl.pieces = append(rest, hp)
}

func (ReorderAction) encode() string { return "reorder(head-last)" }

// DuplicateFill selects what payload a duplicated piece carries.
type DuplicateFill int

const (
	// FillJunk replaces the copy's payload with keyword-free filler.
	FillJunk DuplicateFill = iota
	// FillCopy keeps the payload byte-for-byte.
	FillCopy
)

func (f DuplicateFill) String() string {
	if f == FillCopy {
		return "copy"
	}
	return "junk"
}

// DuplicatePos selects where the copies land relative to the originals.
type DuplicatePos int

const (
	// PosBefore puts the block of copies before the first original: the
	// GFW keeps the first copy of overlapping IP fragments (§3.2).
	PosBefore DuplicatePos = iota
	// PosAfter puts it after the last original: the old GFW prefers the
	// later copy of out-of-order TCP segments while the server keeps
	// the first.
	PosAfter
)

func (p DuplicatePos) String() string {
	if p == PosAfter {
		return "after"
	}
	return "before"
}

// DuplicateAction clones every tail piece into a decoy block. Decoys go
// out as real traffic — the overlap itself, not a discrepancy, is what
// desynchronizes the GFW's reassembly from the server's.
type DuplicateAction struct {
	Fill DuplicateFill
	Pos  DuplicatePos
}

func (a DuplicateAction) apply(pl *plan) {
	first, last := -1, -1
	decoys := pl.spare[:0]
	for i, pc := range pl.pieces {
		if pc.role != roleTail {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		copyPkt := pl.f.pool.Clone(pc.em.Pkt)
		if a.Fill == FillJunk {
			fillJunk(copyPkt.Payload) // the clone's own copy
		}
		copyPkt.Finalize()
		copyPkt.Lin.Origin = packet.OriginStrategy
		copyPkt.Lin.Crafter = pl.crafter
		decoys = append(decoys, piece{em: real(copyPkt), role: roleDecoy})
	}
	if first < 0 {
		return
	}
	at := first
	if a.Pos == PosAfter {
		at = last + 1
	}
	pl.pieces = slices.Insert(pl.pieces, at, decoys...)
	clear(decoys)
	pl.spare = decoys[:0]
}

func (a DuplicateAction) encode() string {
	return "duplicate(tails,fill=" + a.Fill.String() + ",pos=" + a.Pos.String() + ")"
}

// TamperKind selects which field TamperAction rewrites.
type TamperKind int

const (
	// TamperMD5 appends an unsolicited RFC 2385 MD5 option to the real
	// packet (§8: invisible to a censor that learned to skip MD5-tagged
	// packets, harmless to servers that never check the option).
	TamperMD5 TamperKind = iota
	// TamperTTL rewrites the IP TTL.
	TamperTTL
	// TamperFlags rewrites the TCP flags.
	TamperFlags
	// TamperSeq shifts the sequence number by Delta.
	TamperSeq
)

// TamperAction rewrites the plan's (unfragmented) real packet in place
// — the only primitive that modifies protected traffic rather than
// surrounding it.
type TamperAction struct {
	Kind  TamperKind
	TTL   uint8
	Flags uint8
	Delta int
}

func (a TamperAction) apply(pl *plan) {
	for i, pc := range pl.pieces {
		if pc.role != roleReal {
			continue
		}
		p := pl.f.pool.Clone(pc.em.Pkt)
		switch a.Kind {
		case TamperMD5:
			var digest [16]byte
			pl.f.Env.Rand.Read(digest[:])
			p.TCP.Options = append(p.TCP.Options, packet.MD5Option(digest))
		case TamperTTL:
			p.IP.TTL = a.TTL
		case TamperFlags:
			p.TCP.Flags = a.Flags
		case TamperSeq:
			p.TCP.Seq = p.TCP.Seq.Add(a.Delta)
		}
		p.Finalize()
		p.Lin.Origin = packet.OriginStrategy
		p.Lin.Crafter = pl.crafter
		pl.drop(pc.em.Pkt)
		pl.pieces[i].em = real(p)
		return
	}
}

func (a TamperAction) encode() string {
	switch a.Kind {
	case TamperTTL:
		return "tamper(ttl=" + strconv.Itoa(int(a.TTL)) + ")"
	case TamperFlags:
		return "tamper(flags=" + flagsToken(a.Flags) + ")"
	case TamperSeq:
		return "tamper(seq=" + fmt.Sprintf("%+d", a.Delta) + ")"
	default:
		return "tamper(md5)"
	}
}

// DelayAction postpones every piece currently in the plan by Ms
// milliseconds of virtual time.
type DelayAction struct {
	Ms int
}

func (a DelayAction) apply(pl *plan) {
	d := time.Duration(a.Ms) * time.Millisecond
	for i := range pl.pieces {
		pl.pieces[i].em.Delay += d
	}
}

func (a DelayAction) encode() string { return "delay(ms=" + strconv.Itoa(a.Ms) + ")" }

// --- the compiled executor ---

// execState is the per-flow state of a compiled strategy: one trigger
// slot per rule, and the plan the rules that fire build. It hangs off
// the Flow — which the Engine creates per connection — so a strategy
// instance shared across flows (every Factory returned by Spec.Factory
// hands out a single instance) can never leak one-shot state between
// connections.
type execState struct {
	rules []ruleState
	plan  plan
}

// ruleState is one rule's one-shot trigger state: whether it fired,
// and the sequence number of the first segment it fired on.
type ruleState struct {
	fired    bool
	haveSeq  bool
	firstSeq packet.Seq
}

// execStateFor returns the flow's exec state for a strategy of rules
// rules, with fresh trigger state if it held none for that many.
func (f *Flow) execStateFor(rules int) *execState {
	if f.exec == nil {
		f.exec = new(execState)
	}
	if st := f.exec; len(st.rules) != rules {
		st.rules = append(st.rules[:0], make([]ruleState, rules)...)
	}
	return f.exec
}

// reuse returns st, if any, for a new flow: no trigger state, its
// storage kept.
func (st *execState) reuse() *execState {
	if st != nil {
		st.rules = st.rules[:0]
	}
	return st
}

// Compiled executes a Spec against the Strategy interface. It is
// immutable and goroutine-safe; all mutable state lives on the Flow.
type Compiled struct {
	spec Spec
	// labels[i][j] is Rules[i].Actions[j].encode(), interned at compile
	// time so the hot path can stamp packet lineage with one integer
	// store, re-encoding nothing.
	labels [][]packet.CrafterRef
}

// Outbound implements Strategy: run every rule whose trigger fires and
// return the transformed plan, built in the flow's plan and returned
// in the engine's buffer.
func (c *Compiled) Outbound(f *Flow, pkt *packet.Packet) []Emission {
	st := f.execStateFor(len(c.spec.Rules))
	pl := (*plan)(nil)
	for i := range c.spec.Rules {
		r := &c.spec.Rules[i]
		if !triggerFires(r.Trigger, &st.rules[i], f, pkt) {
			continue
		}
		if pl == nil {
			pl = st.plan.reset(f, pkt)
		}
		for j, act := range r.Actions {
			pl.crafter = c.labels[i][j]
			act.apply(pl)
		}
		pl.crafter = 0
	}
	if pl == nil {
		return f.Emit(real(pkt))
	}
	return pl.emissions()
}

// triggerFires decides whether a rule with trigger tr and one-shot
// state st acts on pkt, updating st. Min suppresses a short packet
// without consuming the one-shot; Rexmit re-fires on retransmissions of
// the recorded first segment.
func triggerFires(tr Trigger, st *ruleState, f *Flow, pkt *packet.Packet) bool {
	switch tr.Phase {
	case PhaseSegment:
		return true
	case PhasePayload:
		return len(pkt.Payload) > 0 && len(pkt.Payload) >= tr.Min
	case PhaseHandshake:
		if st.fired || !pkt.TCP.FlagsOnly(packet.FlagSYN) {
			return false
		}
		st.fired = true
		return true
	case PhaseFirstPayload:
		if tr.Rexmit && st.fired && len(pkt.Payload) > 0 &&
			st.haveSeq && pkt.TCP.Seq == st.firstSeq {
			return true
		}
		if st.fired || len(pkt.Payload) == 0 || f.DataSent > 0 {
			return false
		}
		if tr.Min > 0 && len(pkt.Payload) < tr.Min {
			return false
		}
		st.fired = true
		st.firstSeq = pkt.TCP.Seq
		st.haveSeq = true
		return true
	}
	return false
}

// Factory returns a Factory handing out one shared compiled executor;
// per-flow state lives on the Flow, so sharing is safe.
func (s Spec) Factory() Factory {
	labels := make([][]packet.CrafterRef, len(s.Rules))
	for i := range s.Rules {
		labels[i] = make([]packet.CrafterRef, len(s.Rules[i].Actions))
		for j, act := range s.Rules[i].Actions {
			labels[i][j] = packet.InternCrafter(act.encode())
		}
	}
	c := &Compiled{spec: s, labels: labels}
	return func() Strategy { return c }
}
