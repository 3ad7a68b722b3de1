package core

import (
	"fmt"
	"strings"

	"intango/internal/packet"
)

// This file defines every strategy of the paper's Tables 1, 4 and 5 as
// a Spec built from the primitives of primitives.go, registered under
// its legacy name. The monolithic per-strategy implementations are
// gone: a strategy is now data, and the registry is just the naming
// layer over it.

// Entry is one registered strategy: its legacy display name (the alias
// used in table output and the INTANG stats) and its spec.
type Entry struct {
	// Alias is the legacy Name() string, e.g. "improved-teardown".
	Alias string
	// Spec is the declarative definition; Spec.String() is the
	// canonical identity the result cache and tools key off.
	Spec Spec
}

// legacyFlagSlug names teardown flags the way the pre-spec registry
// did ("teardown-fin" is FIN|ACK — the spec vocabulary says "finack").
func legacyFlagSlug(flags uint8) string {
	switch flags {
	case packet.FlagRST:
		return "rst"
	case packet.FlagRST | packet.FlagACK:
		return "rstack"
	case packet.FlagFIN, packet.FlagFIN | packet.FlagACK:
		return "fin"
	default:
		return packet.FlagString(flags)
	}
}

func onHandshake(actions ...Action) Rule {
	return Rule{Trigger: Trigger{Phase: PhaseHandshake}, Actions: actions}
}

func onFirstPayload(actions ...Action) Rule {
	return Rule{Trigger: Trigger{Phase: PhaseFirstPayload}, Actions: actions}
}

// --- spec constructors for the paper's strategies ---

// SpecTCBCreation is "TCB creation with SYN" (§3.2): a fake-sequence
// SYN insertion packet before the real handshake, creating a false TCB
// on the (old) GFW so the real connection is out of its window.
func SpecTCBCreation(d Discrepancy) Spec {
	return Spec{Rules: []Rule{onHandshake(InjectAction{Kind: InjectSYN, Disc: d})}}
}

// SpecOutOfOrderIPFrag is the out-of-order IP-fragment overlap (§3.2):
// fragment so the head carries no payload, send junk copies of the
// tails first (the GFW keeps the first copy of overlapping fragments),
// then the real tails, then the gap-filling head. rexmit re-fragments
// retransmissions so a lossy path never sees the request whole.
func SpecOutOfOrderIPFrag() Spec {
	return Spec{Rules: []Rule{{
		Trigger: Trigger{Phase: PhaseFirstPayload, Min: 16, Rexmit: true},
		Actions: []Action{
			FragmentAction{Layer: LayerIP},
			ReorderAction{},
			DuplicateAction{Fill: FillJunk, Pos: PosBefore},
		},
	}}}
}

// SpecOutOfOrderTCPSeg is the TCP-segment variant (§3.2): real tail
// first, junk copy second (the old GFW prefers the later out-of-order
// copy; the server keeps the first), then the head. The split lands
// right after the method token, before any keyword.
func SpecOutOfOrderTCPSeg() Spec {
	return Spec{Rules: []Rule{{
		Trigger: Trigger{Phase: PhaseFirstPayload, Min: 4},
		Actions: []Action{
			FragmentAction{Layer: LayerTCP, At: 4},
			ReorderAction{},
			DuplicateAction{Fill: FillJunk, Pos: PosAfter},
		},
	}}}
}

// SpecInOrderPrefill is in-order data overlapping (§3.2): junk
// insertion copies shadowing the real request fill the GFW's buffer
// first; the server never accepts them thanks to the discrepancy.
func SpecInOrderPrefill(discs ...Discrepancy) Spec {
	acts := make([]Action, len(discs))
	for i, d := range discs {
		acts[i] = InjectAction{Kind: InjectPrefill, Disc: d}
	}
	return Spec{Rules: []Rule{onFirstPayload(acts...)}}
}

// SpecTCBTeardown sends a RST, RST/ACK or FIN insertion packet after
// the handshake to deactivate the GFW's TCB before the request (§3.2).
func SpecTCBTeardown(flags uint8, d Discrepancy) Spec {
	return Spec{Rules: []Rule{onFirstPayload(TeardownAction{Flags: flags, Disc: d})}}
}

// SpecImprovedTeardown is the §7.1 "Improved TCB Teardown": RST
// insertions (TTL- and MD5-based, per Table 5) followed by a
// desynchronization packet, so a GFW that answers the RST by entering
// the resynchronization state is steered onto a garbage sequence.
func SpecImprovedTeardown() Spec {
	return Spec{Rules: []Rule{onFirstPayload(
		TeardownAction{Flags: packet.FlagRST, Disc: DiscTTL},
		TeardownAction{Flags: packet.FlagRST, Disc: DiscMD5},
		InjectAction{Kind: InjectDesync, Disc: DiscNone},
	)}}
}

// SpecImprovedPrefill is the §7.1 "Improved In-order Data Overlapping":
// junk insertion packets built from the MD5 and old-timestamp
// discrepancies, which no middlebox in the study dropped.
func SpecImprovedPrefill() Spec {
	return SpecInOrderPrefill(DiscMD5, DiscOldTimestamp)
}

// SpecResyncDesync is the Fig. 3 combined strategy: "TCB Creation +
// Resync/Desync". A fake-sequence SYN before the handshake defeats the
// old GFW model; a second SYN insertion after the handshake forces the
// evolved model into the resynchronization state, where the
// desynchronization packet strands it on a garbage sequence. (The
// post-handshake SYN triggers on first payload, not the SYN/ACK ACK:
// earlier and the GFW would just resynchronize from the SYN/ACK, §5.2.)
func SpecResyncDesync() Spec {
	return Spec{Rules: []Rule{
		onHandshake(InjectAction{Kind: InjectSYN, Disc: DiscTTL}),
		onFirstPayload(
			InjectAction{Kind: InjectSYN, Disc: DiscTTL},
			InjectAction{Kind: InjectDesync, Disc: DiscNone},
		),
	}}
}

// SpecTCBReversal is the Fig. 4 combined strategy: "TCB Teardown + TCB
// Reversal". A SYN/ACK insertion before the handshake makes the
// evolved GFW create a reversed TCB; RST insertions after the
// handshake tear down the old model's TCB. The SYN/ACK carries the TTL
// discrepancy so it cannot reach the server, whose LISTEN socket would
// answer with a RST and tear the reversed TCB right back down (§5.2).
func SpecTCBReversal() Spec {
	return Spec{Rules: []Rule{
		onHandshake(InjectAction{Kind: InjectSYNACK, Disc: DiscTTL}),
		onFirstPayload(
			TeardownAction{Flags: packet.FlagRST, Disc: DiscTTL},
			TeardownAction{Flags: packet.FlagRST, Disc: DiscMD5},
		),
	}}
}

// SpecWestChamber is the West Chamber Project baseline (§2, [25]):
// bare RST/FIN teardown packets with no server-side discrepancy. They
// tear the GFW's TCB down, but they also reach the server and kill the
// real connection — which is why the paper found the tool ineffective.
func SpecWestChamber() Spec {
	return Spec{Rules: []Rule{onFirstPayload(
		TeardownAction{Flags: packet.FlagRST, Disc: DiscNone},
		TeardownAction{Flags: packet.FlagFIN | packet.FlagACK, Disc: DiscNone},
	)}}
}

// SpecMD5TaggedRequest is the §8 arms-race counter-counter-measure: if
// the GFW hardens itself to ignore packets with unsolicited MD5
// options, tagging the *real* request with one makes it invisible to
// the censor while servers that never check the option process it
// normally.
func SpecMD5TaggedRequest() Spec {
	return Spec{Rules: []Rule{{
		Trigger: Trigger{Phase: PhasePayload},
		Actions: []Action{TamperAction{Kind: TamperMD5}},
	}}}
}

// Registry lists every built-in strategy in paper-table order: the
// Table 1 existing strategies, then the Table 4 improved/new ones,
// then the §2/§8 extras.
func Registry() []Entry {
	entries := []Entry{
		{"none", Spec{}},
		{"tcb-creation-syn/ttl", SpecTCBCreation(DiscTTL)},
		{"tcb-creation-syn/bad-checksum", SpecTCBCreation(DiscBadChecksum)},
		{"ooo-ipfrag", SpecOutOfOrderIPFrag()},
		{"ooo-tcpseg", SpecOutOfOrderTCPSeg()},
	}
	for _, d := range []Discrepancy{DiscTTL, DiscBadAck, DiscBadChecksum, DiscNoFlag} {
		entries = append(entries, Entry{"prefill/" + d.String(), SpecInOrderPrefill(d)})
	}
	for _, flags := range []uint8{packet.FlagRST, packet.FlagRST | packet.FlagACK, packet.FlagFIN | packet.FlagACK} {
		for _, d := range []Discrepancy{DiscTTL, DiscBadChecksum} {
			entries = append(entries, Entry{
				"teardown-" + legacyFlagSlug(flags) + "/" + d.String(),
				SpecTCBTeardown(flags, d),
			})
		}
	}
	return append(entries,
		Entry{"improved-teardown", SpecImprovedTeardown()},
		Entry{"improved-prefill", SpecImprovedPrefill()},
		Entry{"creation-resync-desync", SpecResyncDesync()},
		Entry{"teardown-reversal", SpecTCBReversal()},
		Entry{"west-chamber", SpecWestChamber()},
		Entry{"md5-request", SpecMD5TaggedRequest()},
	)
}

// BuiltinFactories returns the full strategy suite keyed by legacy
// name: the Table 1 existing strategies and the Table 4 improved/new
// ones, every one compiled from its spec.
func BuiltinFactories() map[string]Factory {
	m := make(map[string]Factory)
	for _, e := range Registry() {
		m[e.Alias] = e.Spec.FactoryAs(e.Alias)
	}
	return m
}

// ResolveStrategy resolves a strategy key — a legacy alias, a canonical
// spec string, or any parseable spec text — to a Factory plus the
// canonical spec string that identifies it. "", "none" and "pass" all
// name the passthrough baseline, whose canonical string is "pass". It
// is the one way a strategy name becomes a strategy; a key that is
// neither a name nor spec text is an error carrying the parser's.
func ResolveStrategy(key string) (Factory, string, error) {
	if key == "" {
		key = "none"
	}
	for _, e := range Registry() {
		if e.Alias == key {
			return e.Spec.FactoryAs(e.Alias), e.Spec.String(), nil
		}
	}
	spec, err := ParseSpec(key)
	if err != nil {
		return nil, "", fmt.Errorf("strategy %q is not a registered name, and not spec text: %w", key, err)
	}
	canon := spec.String()
	if alias, ok := AliasFor(canon); ok {
		return spec.FactoryAs(alias), canon, nil
	}
	return spec.Factory(), canon, nil
}

// AliasFor maps a canonical spec string back to its registered legacy
// name, if any.
func AliasFor(canon string) (string, bool) {
	for _, e := range Registry() {
		if e.Spec.String() == canon {
			return e.Alias, true
		}
	}
	return "", false
}

// FormatStrategyTable renders the name ↔ spec table that
// `cmd/tables -what strategies` prints.
func FormatStrategyTable() string {
	entries := Registry()
	width := 0
	for _, e := range entries {
		if len(e.Alias) > width {
			width = len(e.Alias)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %s\n", width, "name", "spec")
	for _, e := range entries {
		fmt.Fprintf(&b, "%-*s  %s\n", width, e.Alias, e.Spec.String())
	}
	return b.String()
}
