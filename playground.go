package intango

import (
	"bytes"
	"time"

	"intango/internal/appsim"
	"intango/internal/core"
	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// The Playground's fixed topology: playgroundHops routers between
// client and server, the GFW tapping router playgroundGFWHop (counted
// from 0), a Linux 4.4 server, and, unless PlaygroundConfig.GFW says
// otherwise, playgroundKeyword as the censored keyword.
const (
	playgroundHops    = 8
	playgroundGFWHop  = 2
	playgroundKeyword = "ultrasurf"
)

// PlaygroundConfig configures a ready-made client—GFW—server topology.
type PlaygroundConfig struct {
	// Seed drives all randomness; equal seeds give identical runs.
	Seed int64
	// GFW configures the censor; zero value gives an evolved-model
	// device censoring the keyword "ultrasurf" deterministically.
	GFW GFWConfig
}

// Playground is an assembled simulation the examples build on: a
// client stack behind a strategy engine, a GFW wiretap, and an HTTP
// server.
type Playground struct {
	Sim *Simulator
	// Path is the network between them: client — 8 routers — server,
	// the GFW tapping the third.
	Path   *Fabric
	GFW    *GFWDevice
	Client *Stack
	Server *Stack
	Engine *Engine

	ServerAddr Addr
	ClientAddr Addr
}

// NewPlayground assembles the topology.
func NewPlayground(cfg PlaygroundConfig) *Playground {
	if cfg.GFW.Keywords == nil {
		cfg.GFW.Keywords = []string{playgroundKeyword}
		cfg.GFW.Model = gfw.ModelEvolved2017
		cfg.GFW.DetectionMissProb = -1 // deterministic playground
	}
	pg := &Playground{
		Sim:        netem.NewSimulator(cfg.Seed),
		ClientAddr: packet.AddrFrom4(10, 0, 0, 1),
		ServerAddr: packet.AddrFrom4(203, 0, 113, 80),
	}
	link := netem.Link{Latency: time.Millisecond}
	pg.Path = netem.NewChain(pg.Sim, playgroundHops, link, link)
	pg.GFW = gfw.NewDevice("gfw", cfg.GFW, pg.Sim.Rand())
	tap := pg.Path.Node(1 + playgroundGFWHop)
	tap.Taps = []netem.Processor{pg.GFW}
	tap.Processors = []netem.Processor{pg.GFW.IPFilter()}

	pg.Client = tcpstack.NewStack(pg.ClientAddr, tcpstack.Linux44(), pg.Sim)
	pg.Server = tcpstack.NewStack(pg.ServerAddr, tcpstack.Linux44(), pg.Sim)
	pg.Server.AttachServer(pg.Path)
	appsim.ServeHTTP(pg.Server, 80)

	env := core.DefaultEnv(uint8(playgroundHops-1), pg.Sim.Rand())
	pg.Engine = core.NewEngine(pg.Sim, pg.Path, pg.Client, env)
	return pg
}

// Fetch performs one HTTP GET for uri through the given strategy
// factory (nil for no strategy) and returns the client connection after
// the simulation settles.
func (pg *Playground) Fetch(uri string, factory StrategyFactory) *Conn {
	if factory != nil {
		pg.Engine.NewStrategy = func(packet.FourTuple) core.Strategy { return factory() }
	} else {
		pg.Engine.NewStrategy = nil
	}
	conn := pg.Client.Connect(pg.ServerAddr, 80)
	pg.Sim.RunFor(500 * time.Millisecond)
	if conn.State() == tcpstack.Established {
		conn.Write(appsim.HTTPRequest("site.example", uri))
	}
	pg.Sim.RunFor(8 * time.Second)
	return conn
}

// Outcome classifies a finished fetch with the paper's notation:
// "success", "failure-1" (no response, no GFW resets) or "failure-2"
// (GFW resets).
func (pg *Playground) Outcome(conn *Conn) string {
	injected := pg.GFW.Stats["inject-type1"]+pg.GFW.Stats["inject-type2"]+
		pg.GFW.Stats["block-enforce"]+pg.GFW.Stats["forged-synack"] > 0
	responded := bytes.Contains(conn.Received(), []byte(" 200 OK"))
	switch {
	case responded && !(conn.GotRST && injected):
		return "success"
	case conn.GotRST && injected:
		return "failure-2"
	default:
		return "failure-1"
	}
}

// WaitOutBlock advances virtual time past the GFW's 90-second pair
// blocklist.
func (pg *Playground) WaitOutBlock() {
	pg.Sim.RunFor(95 * time.Second)
}
