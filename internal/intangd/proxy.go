package intangd

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"intango/internal/appsim"
	"intango/internal/censor"
	"intango/internal/core"
	"intango/internal/device"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Config parameterizes a Proxy.
type Config struct {
	// Censor is a censor-zoo registry name or raw spec text (default
	// "gfw2017").
	Censor string
	// Strategy is the initial strategy reference: a builtin name, a raw
	// strategy spec, or ""/"none"/"pass" for passthrough.
	Strategy string
	// Seed drives the world's randomness.
	Seed int64
	// IdleTimeout expires flows with no traffic for this long on the
	// wall clock (default 60s).
	IdleTimeout time.Duration
	// TimeScale multiplies wall time into virtual time (default 1.0) on
	// the world's clock, which the clients on ClientDevice share —
	// raise it to compress the censor's 90-second block windows into
	// test-sized waits.
	TimeScale float64
}

// The world's fixed shape: a chain of pathHops routers from client to
// server with the censor tapping at censorHop.
const (
	pathHops  = 8
	censorHop = 2
)

// Proxy is a running daemon world: the censored path, its censor
// devices, an HTTP origin server, and the strategy engine — plus a
// packet pipe whose far end is handed to clients (usually wrapped in a
// uis.Stack so stock net code can dial through it).
//
// The world runs on one netem.Clock, which the pipe hands to the
// clients' stacks too. Its lock serializes everything on it — the
// simulator, the engine, the censor devices, the flow table and the
// clients' TCP state; the clock's pump, the packet pumps, the expiry
// loop and control-plane calls each take it. Its packets come from one
// packet.Pool, as a trial's do.
type Proxy struct {
	cfg Config

	clk    *netem.Clock // the world's clock and lock
	path   *netem.Fabric
	cen    censor.Instance // nil for chain-only censors
	engine *core.Engine
	server *tcpstack.Stack

	stratName    string
	stratFactory core.Factory

	reg   *obs.Registry
	rec   *obs.Recorder
	flows flowTable

	cdev *device.PipeEnd // proxy-side client boundary
	ext  *device.PipeEnd // handed to clients

	clientAddr packet.Addr
	serverAddr packet.Addr

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// New assembles and starts a proxy world.
func New(cfg Config) (*Proxy, error) {
	if cfg.Censor == "" {
		cfg.Censor = "gfw2017"
	}
	if cfg.IdleTimeout <= 0 {
		cfg.IdleTimeout = 60 * time.Second
	}

	p := &Proxy{
		cfg:        cfg,
		clk:        netem.NewClock(cfg.Seed, cfg.TimeScale),
		reg:        obs.NewRegistry(),
		flows:      make(flowTable),
		clientAddr: packet.AddrFrom4(10, 0, 0, 1),
		serverAddr: packet.AddrFrom4(203, 0, 113, 80),
		stop:       make(chan struct{}),
	}
	sim := p.clk.Sim
	p.rec = obs.NewRecorder(obs.DefaultRingSize, sim.Now)
	bundle := obs.New(p.reg, p.rec)

	link := netem.Link{Latency: time.Millisecond}
	p.path = netem.NewChain(sim, pathHops, link, link)
	p.path.Obs = bundle
	// The world's packets come from a pool, as every trial's do; the
	// origin and the engine read it when they attach.
	p.path.Pool = packet.NewPool()

	var err error
	p.cen, err = censor.Attach(p.path.Node(1+censorHop), cfg.Censor, "gfw", true,
		sim.Rand(), rand.New(rand.NewSource(cfg.Seed+1)))
	if err != nil {
		return nil, fmt.Errorf("intangd: censor: %w", err)
	}
	if p.cen != nil {
		p.cen.SetObs(bundle)
	}

	p.server = tcpstack.NewStack(p.serverAddr, tcpstack.Linux44(), sim)
	p.server.AttachServer(p.path)
	p.server.Obs = bundle
	appsim.ServeHTTP(p.server, 80)

	env := core.DefaultEnv(pathHops-1, sim.Rand())
	p.engine = core.NewEngine(sim, p.path, nil, env)
	p.engine.Upstream = p.inbound
	p.engine.NewStrategy = func(packet.FourTuple) core.Strategy {
		// Runs under the world lock (the engine is only entered with it
		// held).
		if p.stratFactory == nil {
			return nil
		}
		return p.stratFactory()
	}

	if err := p.SetStrategy(cfg.Strategy); err != nil {
		return nil, err
	}

	p.ext, p.cdev = device.NewPipe(p.clk, 4096)

	p.clk.Start()
	p.wg.Add(2)
	go p.clientPump()
	go p.expireLoop()
	return p, nil
}

// ClientDevice returns the packet device clients attach to (feed it to
// uis.New for a net.Conn-shaped dialer). Its Clock is the world's:
// Advance on it runs the censored path and the clients' timers forward
// together, without waiting on the wall clock — the lever for skipping
// a censor block window.
func (p *Proxy) ClientDevice() device.Device { return p.ext }

// ClientAddr is the address clients must send from; ServerAddr is the
// censored origin behind the path.
func (p *Proxy) ClientAddr() packet.Addr { return p.clientAddr }
func (p *Proxy) ServerAddr() packet.Addr { return p.serverAddr }

// Registry exposes the daemon's counters for the plane.
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// FlowViews snapshots the flow table for /flows.
func (p *Proxy) FlowViews() []FlowView {
	p.clk.Lock()
	defer p.clk.Unlock()
	return p.flows.snapshot(time.Now())
}

// SetStrategy switches the strategy applied to NEW flows; in-flight
// flows keep the strategy they opened with. New flows show under ref as
// given, or under "pass" when ref names the passthrough baseline.
func (p *Proxy) SetStrategy(ref string) error {
	factory, canon, err := core.ResolveStrategy(ref)
	if err != nil {
		return fmt.Errorf("intangd: %w", err)
	}
	name := ref
	if canon == "pass" {
		name, factory = "pass", nil
	}
	p.clk.Lock()
	p.stratName, p.stratFactory = name, factory
	p.clk.Unlock()
	return nil
}

// Strategy returns the name applied to new flows.
func (p *Proxy) Strategy() string {
	p.clk.Lock()
	defer p.clk.Unlock()
	return p.stratName
}

// CensorStat reads one censor event counter (0 when the censor is a
// chain-only spec with no stats).
func (p *Proxy) CensorStat(kind string) int {
	p.clk.Lock()
	defer p.clk.Unlock()
	if p.cen == nil {
		return 0
	}
	return p.cen.Stat(kind)
}

// Close stops the clock and the loops and severs the client boundary.
func (p *Proxy) Close() error {
	p.once.Do(func() {
		close(p.stop)
		p.cdev.Close() // unblocks the client pump; peers see ErrClosed
		p.clk.Stop()
	})
	p.wg.Wait()
	return nil
}

// clientPump moves packets from the client boundary into the engine.
func (p *Proxy) clientPump() {
	defer p.wg.Done()
	for {
		pkt, err := p.cdev.ReadPacket()
		if err != nil {
			return
		}
		p.clk.Lock()
		if p.flows.touchOutbound(pkt, p.stratName, time.Now(), p.clk.Sim.Now()) {
			p.reg.Inc("intangd.flows-opened")
		}
		p.reg.Inc("intangd.pkts-out")
		p.reg.Add("intangd.bytes-out", pktBytes(pkt))
		p.engine.Outbound(pkt)
		p.clk.Unlock()
	}
}

// inbound is the engine's Upstream: it runs inside simulator events
// with the world lock held. The packet still belongs to the substrate,
// and the pipe serializes synchronously, so handing it over copies by
// construction.
func (p *Proxy) inbound(pkt *packet.Packet) {
	p.flows.touchInbound(pkt, time.Now(), p.clk.Sim.Now())
	p.reg.Inc("intangd.pkts-in")
	p.reg.Add("intangd.bytes-in", pktBytes(pkt))
	_ = p.cdev.WritePacket(pkt)
}

// expireLoop expires idle flows: one critical section prunes the flow
// table and drops the engine's matching state.
func (p *Proxy) expireLoop() {
	defer p.wg.Done()
	t := time.NewTicker(max(p.cfg.IdleTimeout/4, 50*time.Millisecond))
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			p.clk.Lock()
			expired := p.flows.expire(now, p.cfg.IdleTimeout)
			for _, tuple := range expired {
				p.engine.DropFlow(tuple)
			}
			p.clk.Unlock()
			if len(expired) > 0 {
				p.reg.Add("intangd.flows-expired", uint64(len(expired)))
			}
		}
	}
}
