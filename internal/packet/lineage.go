package packet

import "sync"

// Origin identifies which layer crafted a packet — the first axis of
// the causal-tracing lineage model (see DESIGN.md "Causal tracing").
// Zero (OriginUnknown) is the value for packets crafted by code that
// predates or ignores lineage; everything still works, the trace just
// cannot attribute the packet.
type Origin uint8

const (
	// OriginUnknown: the crafting layer did not stamp the packet.
	OriginUnknown Origin = iota
	// OriginStack: a real endpoint TCP/IP stack built the packet.
	OriginStack
	// OriginStrategy: an evasion-strategy primitive crafted it (the
	// insertion packets, fragments and tampered copies of internal/core).
	OriginStrategy
	// OriginGFW: a censor device injected it (forged RSTs, SYN/ACKs,
	// DNS poison, active-probe traffic).
	OriginGFW
	// OriginMiddlebox: an in-path middlebox emitted it (reassembled
	// datagrams).
	OriginMiddlebox
	// OriginRouter: a router generated it (ICMP Time-Exceeded).
	OriginRouter
)

// String names the origin for traces and exports.
func (o Origin) String() string {
	switch o {
	case OriginStack:
		return "stack"
	case OriginStrategy:
		return "strategy"
	case OriginGFW:
		return "gfw"
	case OriginMiddlebox:
		return "middlebox"
	case OriginRouter:
		return "router"
	default:
		return "unknown"
	}
}

// Lineage is the per-packet causal metadata the tracing subsystem keys
// on. It lives inline in the pooled Packet struct so stamping it is a
// handful of integer/string-header stores — never an allocation — and
// costs nothing when tracing is disabled.
//
// Rules (enforced by the crafting layers, summarized in DESIGN.md):
//
//   - ID is the packet's wire identity, assigned exactly once by the
//     netem fabric the first time the packet is sent or injected
//     (Fabric.StampLineage). Crafting layers never assign IDs.
//   - Parent is the ID of the packet that caused this one: the segment
//     a challenge ACK answers, the client packet a forged RST punishes,
//     the intercepted packet an insertion packet shields, the last
//     fragment that completed a reassembly.
//   - Origin names the crafting layer.
//   - Crafter, for strategy-built packets, identifies the canonical
//     spec text of the primitive action that crafted it, as an interned
//     ref (see InternCrafter) so the struct stays pointer-free: every
//     Lineage store is then plain integer moves with no GC write
//     barrier, which keeps the zero-allocation hot path at its
//     pre-lineage speed.
type Lineage struct {
	ID      uint32
	Parent  uint32
	Origin  Origin
	Crafter CrafterRef
}

// CrafterRef is an interned crafter label: an index into the process-
// global label table. Zero means "no crafter". Refs are stable for the
// life of the process but not across processes — resolve with String()
// before exporting.
type CrafterRef uint16

var crafters struct {
	mu    sync.RWMutex
	ids   map[string]CrafterRef
	names []string
}

// InternCrafter registers a crafter label and returns its ref.
// Interning happens at strategy-compile time (cold); the hot path only
// copies the returned integer. The zero ref is reserved for "", and the
// table is append-only, so a ref resolves to the same label forever.
func InternCrafter(name string) CrafterRef {
	if name == "" {
		return 0
	}
	crafters.mu.Lock()
	defer crafters.mu.Unlock()
	if crafters.ids == nil {
		crafters.ids = make(map[string]CrafterRef)
		crafters.names = []string{""}
	}
	if id, ok := crafters.ids[name]; ok {
		return id
	}
	if len(crafters.names) > 0xffff {
		// Table full (65535 distinct labels): record the packet as
		// uncrafted rather than corrupting earlier refs.
		return 0
	}
	id := CrafterRef(len(crafters.names))
	crafters.names = append(crafters.names, name)
	crafters.ids[name] = id
	return id
}

// String resolves the ref back to its label ("" for the zero ref or a
// ref this process never interned).
func (r CrafterRef) String() string {
	if r == 0 {
		return ""
	}
	crafters.mu.RLock()
	defer crafters.mu.RUnlock()
	if int(r) >= len(crafters.names) {
		return ""
	}
	return crafters.names[r]
}

// child derives the lineage a copy of this packet starts with: the
// copy has no wire identity of its own yet, and its parent is the
// original when the original has been on the wire (insertion-wave
// clones), otherwise whatever parent the original already carried
// (clones of not-yet-sent pieces).
func (l Lineage) child() Lineage {
	c := l
	if l.ID != 0 {
		c.Parent = l.ID
	}
	c.ID = 0
	return c
}
