package core

import (
	"fmt"
	"slices"
	"strings"
)

// Entry is one registered strategy: its name (the label used in table
// output and the INTANG stats) and its canonical spec text, which
// round-trips through ParseSpec unchanged.
type Entry struct {
	Name string
	Spec string
}

// registry is every built-in strategy in paper-table order: the Table
// 1 existing strategies, then the Table 4 improved/new ones, then the
// §2/§8 extras. A strategy is data; this table is the only place a
// registered strategy's spec is written.
var registry = []Entry{
	// The no-strategy baseline.
	{"none", "pass"},
	// TCB creation with SYN (§3.2): a fake-sequence SYN insertion packet
	// before the real handshake creates a false TCB on the (old) GFW,
	// so the real connection is out of its window.
	{"tcb-creation-syn/ttl", "on:handshake[inject(syn,disc=ttl)]"},
	{"tcb-creation-syn/bad-checksum", "on:handshake[inject(syn,disc=bad-checksum)]"},
	// Out-of-order IP-fragment overlap (§3.2): fragment so the head
	// carries no payload, send junk copies of the tails first (the GFW
	// keeps the first copy of overlapping fragments), then the real
	// tails, then the gap-filling head. rexmit re-fragments
	// retransmissions so a lossy path never sees the request whole.
	{"ooo-ipfrag", "on:first-payload(min=16,rexmit)[fragment(ip); reorder(head-last); duplicate(tails,fill=junk,pos=before)]"},
	// The TCP-segment variant (§3.2): real tail first, junk copy second
	// (the old GFW prefers the later out-of-order copy; the server keeps
	// the first), then the head. The split lands right after the method
	// token, before any keyword.
	{"ooo-tcpseg", "on:first-payload(min=4)[fragment(tcp,at=4); reorder(head-last); duplicate(tails,fill=junk,pos=after)]"},
	// In-order data overlapping (§3.2): junk insertion copies shadowing
	// the real request fill the GFW's buffer first; the server never
	// accepts them thanks to the discrepancy.
	{"prefill/ttl", "on:first-payload[inject(prefill,disc=ttl)]"},
	{"prefill/bad-ack", "on:first-payload[inject(prefill,disc=bad-ack)]"},
	{"prefill/bad-checksum", "on:first-payload[inject(prefill,disc=bad-checksum)]"},
	{"prefill/no-flag", "on:first-payload[inject(prefill,disc=no-flag)]"},
	// TCB teardown (§3.2): a RST, RST/ACK or FIN insertion packet after
	// the handshake deactivates the GFW's TCB before the request. The
	// "fin" names keep the pre-spec registry's spelling of FIN|ACK.
	{"teardown-rst/ttl", "on:first-payload[teardown(flags=rst,disc=ttl)]"},
	{"teardown-rst/bad-checksum", "on:first-payload[teardown(flags=rst,disc=bad-checksum)]"},
	{"teardown-rstack/ttl", "on:first-payload[teardown(flags=rstack,disc=ttl)]"},
	{"teardown-rstack/bad-checksum", "on:first-payload[teardown(flags=rstack,disc=bad-checksum)]"},
	{"teardown-fin/ttl", "on:first-payload[teardown(flags=finack,disc=ttl)]"},
	{"teardown-fin/bad-checksum", "on:first-payload[teardown(flags=finack,disc=bad-checksum)]"},
	// §7.1 Improved TCB Teardown: RST insertions (TTL- and MD5-based,
	// per Table 5) followed by a desynchronization packet, so a GFW that
	// answers the RST by entering the resynchronization state is steered
	// onto a garbage sequence.
	{"improved-teardown", "on:first-payload[teardown(flags=rst,disc=ttl); teardown(flags=rst,disc=md5); inject(desync)]"},
	// §7.1 Improved In-order Data Overlapping: junk insertion packets
	// built from the MD5 and old-timestamp discrepancies, which no
	// middlebox in the study dropped.
	{"improved-prefill", "on:first-payload[inject(prefill,disc=md5); inject(prefill,disc=old-timestamp)]"},
	// Fig. 3, TCB Creation + Resync/Desync: a fake-sequence SYN before
	// the handshake defeats the old GFW model; a second SYN insertion
	// after the handshake forces the evolved model into the
	// resynchronization state, where the desynchronization packet
	// strands it on a garbage sequence. (The post-handshake SYN triggers
	// on first payload, not the SYN/ACK ACK: earlier and the GFW would
	// just resynchronize from the SYN/ACK, §5.2.)
	{"creation-resync-desync", "on:handshake[inject(syn,disc=ttl)] on:first-payload[inject(syn,disc=ttl); inject(desync)]"},
	// Fig. 4, TCB Teardown + TCB Reversal: a SYN/ACK insertion before
	// the handshake makes the evolved GFW create a reversed TCB; RST
	// insertions after the handshake tear down the old model's TCB. The
	// SYN/ACK carries the TTL discrepancy so it cannot reach the server,
	// whose LISTEN socket would answer with a RST and tear the reversed
	// TCB right back down (§5.2).
	{"teardown-reversal", "on:handshake[inject(synack,disc=ttl)] on:first-payload[teardown(flags=rst,disc=ttl); teardown(flags=rst,disc=md5)]"},
	// The West Chamber Project baseline (§2, [25]): bare RST/FIN
	// teardown packets with no server-side discrepancy. They tear the
	// GFW's TCB down, but they also reach the server and kill the real
	// connection — which is why the paper found the tool ineffective.
	{"west-chamber", "on:first-payload[teardown(flags=rst); teardown(flags=finack)]"},
	// The §8 arms-race counter-counter-measure: if the GFW hardens
	// itself to ignore packets with unsolicited MD5 options, tagging the
	// *real* request with one makes it invisible to the censor while
	// servers that never check the option process it normally.
	{"md5-request", "on:payload[tamper(md5)]"},
}

// Registry lists every built-in strategy in paper-table order.
func Registry() []Entry { return slices.Clone(registry) }

// BuiltinFactories returns the full strategy suite keyed by name: the
// Table 1 existing strategies and the Table 4 improved/new ones, every
// one compiled from its spec.
func BuiltinFactories() map[string]Factory {
	m := make(map[string]Factory, len(registry))
	for _, e := range registry {
		m[e.Name] = MustParseSpec(e.Spec).Factory()
	}
	return m
}

// ResolveStrategy resolves a strategy key — a registered name or any
// parseable spec text — to a Factory plus the canonical spec string
// that identifies it. "", "none" and "pass" all name the passthrough
// baseline, whose canonical string is "pass". It is the one way a
// strategy name becomes a strategy; a key that is neither a name nor
// spec text is an error carrying the parser's. A registered entry's
// text is already canonical, so only spec text given as the key is
// re-encoded.
func ResolveStrategy(key string) (Factory, string, error) {
	if key == "" {
		key = "none"
	}
	text, registered := key, false
	if i := slices.IndexFunc(registry, func(e Entry) bool { return e.Name == key }); i >= 0 {
		text, registered = registry[i].Spec, true
	}
	spec, err := ParseSpec(text)
	if err != nil {
		return nil, "", fmt.Errorf("strategy %q is not a registered name, and not spec text: %w", key, err)
	}
	if !registered {
		text = spec.String()
	}
	return spec.Factory(), text, nil
}

// FormatStrategyTable renders the name ↔ spec table that
// `cmd/tables -what strategies` prints.
func FormatStrategyTable() string {
	width := 0
	for _, e := range registry {
		width = max(width, len(e.Name))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %s\n", width, "name", "spec")
	for _, e := range registry {
		fmt.Fprintf(&b, "%-*s  %s\n", width, e.Name, e.Spec)
	}
	return b.String()
}
