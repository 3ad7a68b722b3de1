package core

import (
	"fmt"
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

// plan is the mutable emission sequence a rule's actions build up.
type plan struct {
	f      *Flow
	src    *packet.Packet // the intercepted packet, untouched
	pieces []piece
	// crafter identifies the canonical spec text of the action currently
	// applying, interned at compile time; every packet an action adds
	// to the plan is stamped with it so traces can name the exact spec
	// piece that crafted each wire packet.
	crafter packet.CrafterRef
}

func newPlan(f *Flow, pkt *packet.Packet) *plan {
	return &plan{f: f, src: pkt, pieces: []piece{{em: real(pkt), role: roleReal}}}
}

func (pl *plan) emissions() []Emission {
	out := make([]Emission, len(pl.pieces))
	for i, pc := range pl.pieces {
		out[i] = pc.em
	}
	return out
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
	for i, pc := range pl.pieces {
		if pc.role != roleReal {
			continue
		}
		pkt := pc.em.Pkt
		var frags []*packet.Packet
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
			fr, err := packet.Fragment(pkt, packet.IPv4HeaderLen+maxData)
			if err != nil || len(fr) < 2 {
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
			f := pl.f
			seg := func(seq packet.Seq, payload []byte) *packet.Packet {
				p := packet.NewTCP(f.Tuple.SrcAddr, f.Tuple.SrcPort, f.Tuple.DstAddr, f.Tuple.DstPort,
					packet.FlagPSH|packet.FlagACK, seq, f.RcvNxt, payload)
				return p.Finalize()
			}
			frags = []*packet.Packet{
				seg(pkt.TCP.Seq, pkt.Payload[:k]),
				seg(pkt.TCP.Seq.Add(k), pkt.Payload[k:]),
			}
		}
		for _, fr := range frags {
			fr.Lin = packet.Lineage{Origin: packet.OriginStrategy, Parent: pl.src.Lin.ID, Crafter: pl.crafter}
		}
		repl := make([]piece, 0, len(pl.pieces)+len(frags)-1)
		repl = append(repl, pl.pieces[:i]...)
		repl = append(repl, piece{em: real(frags[0]), role: roleHead})
		for _, tail := range frags[1:] {
			repl = append(repl, piece{em: real(tail), role: roleTail})
		}
		pl.pieces = append(repl, pl.pieces[i+1:]...)
		return
	}
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
	var decoys []piece
	for i, pc := range pl.pieces {
		if pc.role != roleTail {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		copyPkt := pc.em.Pkt.Clone()
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
	repl := make([]piece, 0, len(pl.pieces)+len(decoys))
	repl = append(repl, pl.pieces[:at]...)
	repl = append(repl, decoys...)
	pl.pieces = append(repl, pl.pieces[at:]...)
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
		p := pc.em.Pkt.Clone()
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

// execState is the per-flow trigger state of a compiled strategy, one
// slot per rule. It hangs off the Flow — which the Engine creates per
// connection — so a strategy instance shared across flows (every
// Factory returned by Spec.Factory hands out a single instance) can
// never leak one-shot state between connections.
type execState struct {
	fired    []bool
	firstSeq []packet.Seq
	haveSeq  []bool
}

func (f *Flow) execStateFor(rules int) *execState {
	if f.exec == nil || len(f.exec.fired) != rules {
		f.exec = &execState{
			fired:    make([]bool, rules),
			firstSeq: make([]packet.Seq, rules),
			haveSeq:  make([]bool, rules),
		}
	}
	return f.exec
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
// return the transformed plan.
func (c *Compiled) Outbound(f *Flow, pkt *packet.Packet) []Emission {
	st := f.execStateFor(len(c.spec.Rules))
	pl := (*plan)(nil)
	for i := range c.spec.Rules {
		r := &c.spec.Rules[i]
		if !triggerFires(r.Trigger, st, i, f, pkt) {
			continue
		}
		if pl == nil {
			pl = newPlan(f, pkt)
		}
		for j, act := range r.Actions {
			pl.crafter = c.labels[i][j]
			act.apply(pl)
		}
		pl.crafter = 0
	}
	if pl == nil {
		return []Emission{real(pkt)}
	}
	return pl.emissions()
}

// triggerFires decides whether rule i acts on pkt, updating the flow's
// one-shot state. Min suppresses a short packet without consuming the
// one-shot; Rexmit re-fires on retransmissions of the recorded first
// segment.
func triggerFires(tr Trigger, st *execState, i int, f *Flow, pkt *packet.Packet) bool {
	switch tr.Phase {
	case PhaseSegment:
		return true
	case PhasePayload:
		return len(pkt.Payload) > 0 && len(pkt.Payload) >= tr.Min
	case PhaseHandshake:
		if st.fired[i] || !pkt.TCP.FlagsOnly(packet.FlagSYN) {
			return false
		}
		st.fired[i] = true
		return true
	case PhaseFirstPayload:
		if tr.Rexmit && st.fired[i] && len(pkt.Payload) > 0 &&
			st.haveSeq[i] && pkt.TCP.Seq == st.firstSeq[i] {
			return true
		}
		if st.fired[i] || len(pkt.Payload) == 0 || f.DataSent > 0 {
			return false
		}
		if tr.Min > 0 && len(pkt.Payload) < tr.Min {
			return false
		}
		st.fired[i] = true
		st.firstSeq[i] = pkt.TCP.Seq
		st.haveSeq[i] = true
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
