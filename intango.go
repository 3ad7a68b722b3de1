// Package intango is a faithful, fully simulated reproduction of
// "Your State is Not Mine: A Closer Look at Evading Stateful Internet
// Censorship" (Wang, Cao, Qian, Song, Krishnamurthy — IMC 2017).
//
// It provides, from scratch and on the standard library only:
//
//   - executable models of the GFW's old (2013) and evolved (2017) DPI
//     state machines, including the re-synchronization state, the
//     type-1/type-2 reset injectors, the 90-second blocklist with
//     forged SYN/ACKs, DNS poisoning, and Tor active-probe IP blocking;
//   - endpoint TCP stacks with the version-specific "ignore path"
//     behaviour of five Linux generations (Table 3, §5.3);
//   - the full evasion-strategy suite of Tables 1 and 4, the
//     insertion-packet crafting of Table 5, and the INTANG
//     measurement-driven evasion engine (§6);
//   - a deterministic discrete-event network simulator with
//     middleboxes, loss, TTL semantics and ICMP, over which every
//     table and figure of the paper's evaluation is regenerated.
//
// The root package re-exports the pieces a downstream user needs; the
// implementation lives in internal/ packages documented in DESIGN.md.
//
// Quick start:
//
//	pg := intango.NewPlayground(intango.PlaygroundConfig{Seed: 1})
//	conn := pg.Fetch("/?q=ultrasurf", intango.Strategies()["teardown-reversal"])
//	fmt.Println(pg.Outcome(conn)) // "success" — evaded
package intango

import (
	"intango/internal/core"
	"intango/internal/experiment"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Re-exported core types: packet crafting and strategies.
type (
	// Packet is one IPv4 datagram in the simulation.
	Packet = packet.Packet
	// Addr is an IPv4 address.
	Addr = packet.Addr
	// Seq is a TCP sequence number with modular arithmetic.
	Seq = packet.Seq
	// Strategy transforms a connection's outbound packets to evade the
	// censor.
	Strategy = core.Strategy
	// StrategyFactory builds per-connection strategy instances.
	StrategyFactory = core.Factory
	// Discrepancy selects how an insertion packet is made
	// server-invisible (TTL, bad checksum, MD5 option, ...).
	Discrepancy = core.Discrepancy
	// StrategySpec is a declarative strategy specification — a set of
	// trigger→action rules with a canonical single-line text encoding
	// (see ParseSpec / CompileSpec and DESIGN.md "Strategy
	// composition").
	StrategySpec = core.Spec
	// StrategyEntry pairs a built-in strategy's table name with its
	// canonical spec text.
	StrategyEntry = core.Entry
	// Engine is the client-side interception engine strategies run in.
	Engine = core.Engine
	// GFWConfig parameterizes a censor device model.
	GFWConfig = gfw.Config
	// GFWDevice is one on-path censor instance.
	GFWDevice = gfw.Device
	// GFWModel selects the old (2013) or evolved (2017) state machine.
	GFWModel = gfw.Model
	// StackProfile is a TCP-stack behaviour profile (Linux version).
	StackProfile = tcpstack.Profile
	// Conn is an endpoint TCP connection.
	Conn = tcpstack.Conn
	// Stack is an endpoint TCP/IP stack.
	Stack = tcpstack.Stack
	// Simulator is the deterministic discrete-event scheduler.
	Simulator = netem.Simulator
	// Fabric is a simulated network between one client and one server:
	// a chain of routers, as a Playground's Path is, or any routed graph.
	Fabric = netem.Fabric
	// INTANG is the measurement-driven evasion controller of §6.
	INTANG = intang.INTANG
	// INTANGOptions configures an INTANG instance.
	INTANGOptions = intang.Options
	// Runner executes paper-scale experiment campaigns.
	Runner = experiment.Runner
)

// Re-exported discrepancy constants (Table 5).
const (
	DiscTTL          = core.DiscTTL
	DiscBadChecksum  = core.DiscBadChecksum
	DiscBadAck       = core.DiscBadAck
	DiscMD5          = core.DiscMD5
	DiscOldTimestamp = core.DiscOldTimestamp
	DiscNoFlag       = core.DiscNoFlag
)

// Re-exported GFW models.
const (
	ModelKhattak2013 = gfw.ModelKhattak2013
	ModelEvolved2017 = gfw.ModelEvolved2017
)

// StackProfiles returns the modelled server TCP stacks, newest first
// (Linux 4.4 … 2.4.37).
func StackProfiles() []StackProfile { return tcpstack.AllProfiles() }

// Strategies returns the built-in strategy suite keyed by the names
// used in the paper's tables (e.g. "improved-teardown",
// "teardown-reversal", "creation-resync-desync", "prefill/ttl").
func Strategies() map[string]StrategyFactory {
	return core.BuiltinFactories()
}

// ParseSpec parses the single-line strategy grammar, e.g.
//
//	on:first-payload[teardown(flags=rst,disc=ttl); inject(desync)]
//
// The result round-trips: ParseSpec(spec.String()) == spec.
func ParseSpec(text string) (StrategySpec, error) { return core.ParseSpec(text) }

// CompileSpec compiles a spec into a per-connection strategy factory
// usable with Playground.Fetch or an Engine.
func CompileSpec(spec StrategySpec) StrategyFactory { return spec.Factory() }

// RegisteredStrategies lists the built-in suite as (name, spec text)
// pairs in table order — the same inventory `cmd/tables -what
// strategies` prints.
func RegisteredStrategies() []StrategyEntry { return core.Registry() }

// NewINTANG wires an INTANG instance between a client stack and the
// client end of a fabric (a Playground's Path, for one). It panics on a
// candidate in opts that neither names a registered strategy nor
// parses as spec text, with the parser's message.
func NewINTANG(sim *Simulator, f *Fabric, stack *Stack, opts INTANGOptions) *INTANG {
	return intang.New(sim, f, stack, opts)
}

// NewRunner builds an experiment runner over the paper's populations.
func NewRunner(seed int64) *Runner {
	return experiment.NewRunner(seed)
}

// AddrFrom4 builds an address from four octets.
func AddrFrom4(a, b, c, d byte) Addr { return packet.AddrFrom4(a, b, c, d) }
