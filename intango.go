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
	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Re-exported types: the strategies, the censor model and the
// pieces a Playground exposes.
type (
	// Addr is an IPv4 address.
	Addr = packet.Addr
	// StrategyFactory builds per-connection strategy instances.
	StrategyFactory = core.Factory
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
	// Conn is an endpoint TCP connection.
	Conn = tcpstack.Conn
	// Stack is an endpoint TCP/IP stack.
	Stack = tcpstack.Stack
	// Simulator is the deterministic discrete-event scheduler.
	Simulator = netem.Simulator
	// Fabric is a simulated network between one client and one server:
	// a chain of routers, as a Playground's Path is, or any routed graph.
	Fabric = netem.Fabric
)

// Re-exported GFW models.
const (
	ModelKhattak2013 = gfw.ModelKhattak2013
	ModelEvolved2017 = gfw.ModelEvolved2017
)

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
