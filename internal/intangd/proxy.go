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
	// TimeScale multiplies wall time into virtual time (default 1.0) —
	// raise it to compress the censor's 90-second block windows into
	// test-sized waits.
	TimeScale float64
}

// The world's fixed shape: a chain of pathHops routers from client to
// server with the censor tapping at censorHop, a clock pump ticking
// every clockTick of wall time, and a flow table of flowShards shards.
const (
	pathHops   = 8
	censorHop  = 2
	clockTick  = time.Millisecond
	flowShards = 16
)

// Proxy is a running daemon world: the censored path, its censor
// devices, an HTTP origin server, and the strategy engine — plus a
// packet pipe whose far end is handed to clients (usually wrapped in a
// uis.Stack so stock net code can dial through it).
//
// One mutex serializes the world — the simulator, the engine, and the
// censor devices; the client pump and the clock pump are the only
// goroutines that take it besides control-plane calls. The flow table
// has its own sharded locks so /flows scrapes never stall the packet
// path on the world lock.
type Proxy struct {
	cfg Config

	mu     sync.Mutex // world lock
	sim    *netem.Simulator
	path   *netem.Fabric
	cen    censor.Instance // nil for chain-only censors
	engine *core.Engine
	server *tcpstack.Stack

	stratName    string
	stratFactory core.Factory

	reg   *obs.Registry
	rec   *obs.Recorder
	flows *FlowTable

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
	if cfg.TimeScale <= 0 {
		cfg.TimeScale = 1
	}

	p := &Proxy{
		cfg:        cfg,
		sim:        netem.NewSimulator(cfg.Seed),
		reg:        obs.NewRegistry(),
		flows:      NewFlowTable(flowShards),
		clientAddr: packet.AddrFrom4(10, 0, 0, 1),
		serverAddr: packet.AddrFrom4(203, 0, 113, 80),
		stop:       make(chan struct{}),
	}
	p.rec = obs.NewRecorder(obs.DefaultRingSize, p.sim.Now)
	bundle := obs.New(p.reg, p.rec)

	link := netem.Link{Latency: time.Millisecond}
	p.path = netem.NewChain(p.sim, pathHops, link, link)
	p.path.Obs = bundle

	comp, err := censor.Resolve(cfg.Censor)
	if err != nil {
		return nil, fmt.Errorf("intangd: censor: %w", err)
	}
	hop := p.path.Node(1 + censorHop)
	if procs, ok := comp.BuildChain(p.sim.Rand()); ok {
		hop.Processors = append(hop.Processors, procs...)
	} else {
		pairRng := rand.New(rand.NewSource(cfg.Seed + 1))
		inst, err := comp.Build("gfw", p.sim.Rand(), pairRng)
		if err != nil {
			return nil, fmt.Errorf("intangd: censor: %w", err)
		}
		inst.SetClientSide(func(a packet.Addr) bool { return a[0] == p.clientAddr[0] })
		inst.SetObs(bundle)
		hop.Taps = append(hop.Taps, inst)
		if f := inst.Filter(); f != nil {
			hop.Processors = append(hop.Processors, f)
		}
		p.cen = inst
	}

	p.server = tcpstack.NewStack(p.serverAddr, tcpstack.Linux44(), p.sim)
	p.server.AttachServer(p.path)
	p.server.Obs = bundle
	appsim.ServeHTTP(p.server, 80)

	env := core.DefaultEnv(pathHops-1, p.sim.Rand())
	p.engine = core.NewEngine(p.sim, p.path, nil, env)
	p.engine.Upstream = p.inbound
	p.engine.NewStrategy = func(packet.FourTuple) core.Strategy {
		// Runs under p.mu (the engine is only entered with it held).
		if p.stratFactory == nil {
			return nil
		}
		return p.stratFactory()
	}

	if err := p.SetStrategy(cfg.Strategy); err != nil {
		return nil, err
	}

	ext, cdev := device.NewPipe(4096)
	p.ext, p.cdev = ext, cdev

	p.wg.Add(2)
	go p.clientPump()
	go p.clockPump()
	return p, nil
}

// ClientDevice returns the packet device clients attach to (feed it to
// uis.New for a net.Conn-shaped dialer).
func (p *Proxy) ClientDevice() device.Device { return p.ext }

// ClientAddr is the address clients must send from; ServerAddr is the
// censored origin behind the path.
func (p *Proxy) ClientAddr() packet.Addr { return p.clientAddr }
func (p *Proxy) ServerAddr() packet.Addr { return p.serverAddr }

// Registry exposes the daemon's counters for the plane.
func (p *Proxy) Registry() *obs.Registry { return p.reg }

// FlowViews snapshots the flow table for /flows.
func (p *Proxy) FlowViews() []FlowView { return p.flows.Snapshot(time.Now()) }

// FlowCount returns the number of live flows.
func (p *Proxy) FlowCount() int { return p.flows.Len() }

// ResolveStrategy maps a strategy reference — ""/"none"/"pass", a
// builtin name, or raw spec text — to a display name and factory (nil
// factory = passthrough).
func ResolveStrategy(ref string) (string, core.Factory, error) {
	switch ref {
	case "", "none", "pass":
		return "pass", nil, nil
	}
	if f, ok := core.BuiltinFactories()[ref]; ok {
		return ref, f, nil
	}
	spec, err := core.ParseSpec(ref)
	if err != nil {
		return "", nil, fmt.Errorf("intangd: strategy %q: %w", ref, err)
	}
	return ref, spec.FactoryAs(ref), nil
}

// SetStrategy switches the strategy applied to NEW flows; in-flight
// flows keep the strategy they opened with.
func (p *Proxy) SetStrategy(ref string) error {
	name, factory, err := ResolveStrategy(ref)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.stratName, p.stratFactory = name, factory
	p.mu.Unlock()
	return nil
}

// Strategy returns the name applied to new flows.
func (p *Proxy) Strategy() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stratName
}

// CensorStat reads one censor event counter (0 when the censor is a
// chain-only spec with no stats).
func (p *Proxy) CensorStat(kind string) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.cen == nil {
		return 0
	}
	return p.cen.Stat(kind)
}

// AdvanceVirtual runs the world's virtual clock forward by d without
// waiting on the wall clock — operational lever for skipping a censor
// block window (and what the tests use instead of sleeping 90s).
func (p *Proxy) AdvanceVirtual(d time.Duration) {
	p.mu.Lock()
	p.sim.RunFor(d)
	p.mu.Unlock()
}

// Close stops the pumps and severs the client boundary.
func (p *Proxy) Close() error {
	p.once.Do(func() {
		close(p.stop)
		p.cdev.Close() // unblocks the client pump; peers see ErrClosed
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
		p.mu.Lock()
		if p.flows.TouchOutbound(pkt, p.stratName, time.Now(), p.sim.Now()) {
			p.reg.Inc("intangd.flows-opened")
		}
		p.reg.Inc("intangd.pkts-out")
		p.reg.Add("intangd.bytes-out", pktBytes(pkt))
		p.engine.Outbound(pkt)
		p.mu.Unlock()
	}
}

// inbound is the engine's Upstream: it runs inside simulator events
// with the world lock held. The packet still belongs to the substrate,
// and the pipe serializes synchronously, so handing it over copies by
// construction.
func (p *Proxy) inbound(pkt *packet.Packet) {
	p.flows.TouchInbound(pkt, time.Now(), p.sim.Now())
	p.reg.Inc("intangd.pkts-in")
	p.reg.Add("intangd.bytes-in", pktBytes(pkt))
	_ = p.cdev.WritePacket(pkt)
}

// clockPump advances the world with the wall clock and expires idle
// flows. Expiry prunes the flow table under its own shard locks, then
// takes the world lock once to drop the engine's matching state.
func (p *Proxy) clockPump() {
	defer p.wg.Done()
	t := time.NewTicker(clockTick)
	defer t.Stop()
	expireEvery := p.cfg.IdleTimeout / 4
	if expireEvery < 50*time.Millisecond {
		expireEvery = 50 * time.Millisecond
	}
	ex := time.NewTicker(expireEvery)
	defer ex.Stop()
	last := time.Now()
	for {
		select {
		case <-p.stop:
			return
		case now := <-t.C:
			el := now.Sub(last)
			last = now
			if p.cfg.TimeScale != 1 {
				el = time.Duration(float64(el) * p.cfg.TimeScale)
			}
			p.mu.Lock()
			p.sim.RunFor(el)
			p.mu.Unlock()
		case now := <-ex.C:
			expired := p.flows.Expire(now, p.cfg.IdleTimeout)
			if len(expired) == 0 {
				continue
			}
			p.mu.Lock()
			for _, tuple := range expired {
				p.engine.DropFlow(tuple)
			}
			p.mu.Unlock()
			p.reg.Add("intangd.flows-expired", uint64(len(expired)))
		}
	}
}
