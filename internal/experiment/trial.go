package experiment

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"intango/internal/appsim"
	"intango/internal/censor"
	"intango/internal/core"
	"intango/internal/intang"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/tcpstack"
	"intango/internal/topo"
	"intango/internal/trace"
)

// Outcome is the §3.4 trial classification.
type Outcome int

// The three outcomes of Table 1's notation.
const (
	// Success: HTTP response received and no resets from the GFW.
	Success Outcome = iota
	// Failure1: no response and no GFW resets (middlebox/server/path
	// side effects).
	Failure1
	// Failure2: reset packets from the GFW (type-1 or type-2).
	Failure2

	// numOutcomes sizes outcome-indexed arrays (the progress tracker's
	// per-outcome counters); keep it last in the block.
	numOutcomes = iota
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case Failure1:
		return "failure-1"
	case Failure2:
		return "failure-2"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Runner executes trials over the calibrated population.
type Runner struct {
	Cal  Calibration
	Seed int64
	// Obs, when set, collects counters, throughput aggregates, and
	// failing-trial flight-recorder traces from every trial. Nil (the
	// default) leaves the whole stack uninstrumented.
	Obs *ObsSink
	// Workers caps the campaign executor's fan-out; 0 means GOMAXPROCS.
	Workers int
	// NoPool disables packet pooling: every trial then allocates its
	// packets on the heap. The pooling determinism test uses it as the
	// control arm; campaigns leave it false.
	NoPool bool
	// Progress, when set, emits periodic campaign-progress snapshots
	// while the campaign executor runs.
	Progress *ProgressOptions
	// Topo, when set, is a declarative topology spec (internal/topo
	// grammar) that replaces the linear path derived from each (vantage
	// point, server) pair: graph shapes — parallel censor branches,
	// asymmetric routes — run through the same campaign machinery;
	// attachment references resolve through the standard rig binder
	// (see topo.go).
	// An invalid spec panics at the first build.
	Topo string
	// Censor, when set, replaces every GFW device the topology would
	// bind with a censor compiled from this reference — a registry name
	// ("turkmenistan") or raw censor-spec text (internal/censor
	// grammar). The spec's parameters are authoritative: Cal's device
	// probabilities apply only to the default ("") population. A
	// filter-only censor fills each slot with its middlebox chain.
	Censor string

	// progressAddr is atomic: callers poll ProgressAddr from other
	// goroutines while the executor is binding the endpoint (the whole
	// point of a live scrape).
	progressAddr atomic.Value // string
	// progressSeries and progressFinal are retained from the tracker
	// when a progress-enabled campaign completes; the health report
	// builds its throughput curve and final counts from them.
	progressSeries obs.TimeSeriesSnapshot
	progressFinal  ProgressSnapshot
	progressRan    bool

	poolOnce sync.Once
	pool     *packet.Pool

	// programs caches the derived topology programs of this runner's
	// trials by shape (see Runner.program); progMu guards it against
	// the campaign workers.
	progMu   sync.RWMutex
	programs map[topoKey]*topo.Program
}

// packetPool returns the runner's shared packet pool (nil when pooling
// is disabled). One pool serves every trial and every campaign worker;
// sync.Pool shards itself per P.
func (r *Runner) packetPool() *packet.Pool {
	if r.NoPool {
		return nil
	}
	r.poolOnce.Do(func() { r.pool = packet.NewPool() })
	return r.pool
}

// PoolStats snapshots the packet-pool traffic counters: zero when
// pooling is disabled (NoPool) or no trial has run yet, as there is
// then no pool.
func (r *Runner) PoolStats() packet.PoolStats {
	return r.pool.Stats()
}

// ProgressAddr returns the bound address of the live progress HTTP
// endpoint once a campaign has started it ("" when none configured).
// Safe to poll from another goroutine while a campaign runs.
func (r *Runner) ProgressAddr() string {
	if v := r.progressAddr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// ProgressSeries returns the sampled campaign time-series retained
// from the most recent progress-enabled campaign (empty when
// progress was never configured).
func (r *Runner) ProgressSeries() obs.TimeSeriesSnapshot { return r.progressSeries }

// FinalProgress returns the closing progress snapshot of the most
// recent progress-enabled campaign; ok is false when progress was
// never configured.
func (r *Runner) FinalProgress() (ProgressSnapshot, bool) { return r.progressFinal, r.progressRan }

// NewRunner builds a runner with the default calibration.
func NewRunner(seed int64) *Runner {
	return &Runner{Cal: DefaultCalibration(), Seed: seed}
}

// pairSeed derives the stable per-(vantage point, server) seed that
// pins device behaviour across trials.
func (r *Runner) pairSeed(vp VantagePoint, srv Server) int64 {
	h := fnv.New64a()
	h.Write([]byte(vp.Name))
	h.Write([]byte{0})
	h.Write([]byte(srv.Name))
	return r.Seed ^ int64(h.Sum64())
}

// rig is one constructed trial topology.
type rig struct {
	sim     *netem.Simulator
	net     *netem.Fabric
	devices []censor.Instance
	cli     *tcpstack.Stack
	srv     *tcpstack.Stack
	engine  *core.Engine
}

// build assembles the (vp, server) substrate for one trial on arena a:
// derive the declarative topology (or parse topoRef, a Runner.Topo
// override when non-empty), fetch its cached compiled Program, and
// instantiate it with this trial's RNGs bound through the rig binder,
// which fills the GFW device slots from censorRef (see Runner.Censor).
// Measured paths are linear chains, an override may be any graph; both
// become one netem.Fabric per trial over the program's shared routing.
// The rig runs on a's simulator, so it is dead once a builds again.
func (r *Runner) build(vp VantagePoint, srv Server, topoRef, censorRef string, trialSeed int64, a *arena) *rig {
	rg := &rig{sim: a.simulator(trialSeed)}
	trialRng := rg.sim.Rand()

	// Route dynamics: the path this trial may be ±2 hops off the
	// measured count (§3.4). A shift below one hop clamps to a single
	// router: the shortest path that still carries a tap.
	hops := srv.Hops
	if trialRng.Float64() < srv.RouteDynamicsProb {
		if trialRng.Intn(2) == 0 {
			hops -= 2
		} else {
			hops += 2
		}
	}
	if hops < 1 {
		hops = 1
	}

	prog := r.program(topoRef, vp, srv, hops)
	binder := &rigBinder{r: r, vp: vp, censor: censorRef, rg: rg,
		trialRng: trialRng, pairRng: a.pairSource(r.pairSeed(vp, srv))}
	n, err := prog.Instantiate(binder, topo.Options{Sim: rg.sim, Pool: a.pool})
	if err != nil {
		// Derived specs are valid by construction and overrides are
		// validated at parse; a bind failure here is a programming error.
		panic(fmt.Sprintf("experiment: instantiate topology: %v", err))
	}
	rg.net = n

	rg.cli = tcpstack.NewStack(vp.Addr, tcpstack.Linux44(), rg.sim)
	// The engine interposes on the client end (NewEngine replaces
	// cli.Send), so the client stack never runs AttachClient; hand it
	// the pool directly.
	rg.cli.Pool = n.Pool
	rg.srv = tcpstack.NewStack(srv.Addr, srv.Stack, rg.sim)
	rg.srv.AttachServer(n)
	appsim.ServeHTTP(rg.srv, 80)
	return rg
}

// insertionTTL computes the crafting TTL from the measured hop count:
// (hops+1) - δ, i.e. one short of the last router (§7.1, δ=2).
func insertionTTL(srv Server) uint8 {
	ttl := srv.Hops - 1
	if ttl < 1 {
		ttl = 1
	}
	return uint8(ttl)
}

// classify applies the §3.4 notation.
func classify(rg *rig, conn *tcpstack.Conn, sensitive bool) Outcome {
	injected := false
	for _, dev := range rg.devices {
		if dev.Stat("inject-type1")+dev.Stat("inject-type2")+dev.Stat("block-enforce")+dev.Stat("forged-synack") > 0 {
			injected = true
		}
	}
	responded := appsim.HTTPResponseComplete(conn.Received())
	switch {
	case responded && !(conn.GotRST && injected):
		return Success
	case conn.GotRST && injected:
		return Failure2
	default:
		return Failure1
	}
}

// attachObs threads one trial's obs bundle through every layer of the
// rig: the fabric (netem + middlebox counters), each GFW device, and
// both end-host stacks. Instrumentation never schedules events or
// draws randomness, so an attached rig behaves identically to a bare
// one.
func (rg *rig) attachObs(b *obs.Obs) {
	rg.net.Obs = b
	for _, dev := range rg.devices {
		dev.SetObs(b)
	}
	rg.cli.Obs = b
	rg.srv.Obs = b
}

// runRig builds and executes one trial of j between vp and srv on
// arena a: optional obs attachment, one HTTP fetch, §3.4
// classification. A nil reg runs
// uninstrumented (the hot path); otherwise a fresh per-trial flight
// recorder keyed to the simulator's virtual clock is wired through the
// whole rig. A non-nil tc additionally taps the recorder and the path
// so the tracer sees the complete event stream and every wire packet;
// tracing only observes — it never schedules events or draws
// randomness, so a traced trial is bit-identical to an untraced one.
func (r *Runner) runRig(j *trialJob, vp *VantagePoint, srv *Server, reg *obs.Registry, tc *trace.Tracer, a *arena) (Outcome, *rig, *obs.Recorder) {
	trialSeed := r.pairSeed(*vp, *srv) ^ int64(uint64(j.trial)*0x9e3779b97f4a7c15)
	rg := r.build(*vp, *srv, r.Topo, j.censor, trialSeed, a)
	var rec *obs.Recorder
	if reg != nil {
		rec = obs.NewRecorder(obs.DefaultRingSize, rg.sim.Now)
		rg.attachObs(obs.New(reg, rec))
		if tc != nil {
			tc.Attach(rec, rg.net)
		}
	}
	env := core.DefaultEnv(insertionTTL(*srv), rg.sim.Rand())
	rg.engine = core.NewEngine(rg.sim, rg.net, rg.cli, env)
	// The closure captures the factory, not j: it outlives this call,
	// and capturing j would move every RunOne's job to the heap.
	if factory := j.factory; factory != nil {
		rg.engine.NewStrategy = func(packet.FourTuple) core.Strategy { return factory() }
	}
	conn := fetch(rg, *srv, j.sensitive)
	if rec != nil {
		recordStageSpans(rg, conn, reg, rec)
	}
	return classify(rg, conn, j.sensitive), rg, rec
}

// Stage histogram names, shared by span recording and the health
// report. Constants keep the instrumented path free of per-span string
// concatenation.
const (
	spanBuild     = "span.build"
	spanHandshake = "span.handshake"
	spanStrategy  = "span.strategy"
	spanVerdict   = "span.verdict"
	spanTeardown  = "span.teardown"
)

// connectWindow is how long fetch waits for the handshake before
// writing the request — and what the handshake span charges when the
// connection never establishes.
const connectWindow = 500 * time.Millisecond

// recordStageSpans brackets the trial's stages on the virtual clock —
// topology build, handshake, strategy application, censor verdict,
// teardown — recording each as a flight-recorder span and folding its
// duration into the registry's stage histograms. Everything here reads
// marks the layers stamped while the simulation ran; nothing schedules
// events or draws randomness, so instrumented trials stay bit-identical
// to bare ones, serial or parallel.
func recordStageSpans(rg *rig, conn *tcpstack.Conn, reg *obs.Registry, rec *obs.Recorder) {
	span := func(name string, start, end time.Duration) {
		if end < start {
			end = start
		}
		rec.AddSpan(name, start, end)
		reg.Histogram(name, obs.DefaultDurationBuckets).Observe(uint64(end - start))
	}
	// Topology build happens before the virtual clock starts ticking;
	// a zero-width span at t=0 keeps the stage visible in exports.
	span(spanBuild, 0, 0)
	est := conn.EstablishedAt
	if est == 0 {
		// Never established: charge the full window fetch waited.
		est = connectWindow
	}
	span(spanHandshake, 0, est)
	span(spanStrategy, rg.engine.FirstSendAt, rg.engine.LastSendAt)
	for _, dev := range rg.devices {
		first, verdict, last := dev.Marks()
		if first == 0 && last == 0 {
			continue // saw no traffic
		}
		end := verdict
		if end == 0 {
			end = last
		}
		span(spanVerdict, first, end)
	}
	span(spanTeardown, rg.net.LastEventAt(), rg.sim.Now())
}

// runOne runs one trial of j between vp and srv on arena a against an
// explicit sink (the executor hands each shard its own, and each worker
// its arena). label names the job in the failure-trace retention key.
// The VP and server travel beside the job rather than through it: a
// job's contents escape, so RunOne's parameters would move to the heap
// if its job pointed at them. Everything the sink keeps is copied out
// of the rig before runOne returns, so a may build the next trial.
func (r *Runner) runOne(j *trialJob, vp *VantagePoint, srv *Server, label string, sink *ObsSink, a *arena) Outcome {
	var reg *obs.Registry
	if sink != nil {
		reg = sink.Registry
	}
	out, rg, rec := r.runRig(j, vp, srv, reg, nil, a)
	if sink != nil {
		sink.absorb(rg, label, vp.Name, srv.Name, j.sensitive, j.trial, out, rec)
	}
	return out
}

// job describes one trial of this runner against its configured
// censor; the caller passes the VP and server beside it.
func (r *Runner) job(factory core.Factory, sensitive bool, trial int) *trialJob {
	return &trialJob{censor: r.Censor, factory: factory, sensitive: sensitive, trial: trial}
}

// RunOne executes a single strategy trial and classifies it.
func (r *Runner) RunOne(vp VantagePoint, srv Server, factory core.Factory, sensitive bool, trial int) Outcome {
	return r.runOne(r.job(factory, sensitive, trial), &vp, &srv, "", r.Obs, r.newArena())
}

// RunOneCausal runs one trial with full causal tracing — lineage-
// annotated packet capture plus the complete (unevicted) event stream —
// and returns the classification with the assembled trace. label names
// the strategy in the trace meta; pass "" for no strategy.
func (r *Runner) RunOneCausal(vp VantagePoint, srv Server, factory core.Factory, label string, sensitive bool, trial int) (Outcome, *trace.Trace) {
	tc := trace.New()
	out, _, _ := r.runRig(r.job(factory, sensitive, trial), &vp, &srv, obs.NewRegistry(), tc, r.newArena())
	return out, tc.Finish(trace.Meta{
		Strategy: label, VP: vp.Name, Server: srv.Name,
		Trial: trial, Outcome: out.String(),
	})
}

// fetch performs one HTTP GET (optionally with the sensitive keyword)
// and advances the simulation long enough to settle.
func fetch(rg *rig, srv Server, sensitive bool) *tcpstack.Conn {
	conn := rg.cli.Connect(srv.Addr, 80)
	rg.sim.RunFor(connectWindow)
	uri := "/index.html"
	if sensitive {
		uri = "/search?q=" + Keyword
	}
	if conn.State() == tcpstack.Established {
		conn.Write(appsim.HTTPRequest(srv.Name, uri))
	}
	rg.sim.RunFor(8 * time.Second)
	return conn
}

// RunINTANGSeries runs a sequence of sensitive fetches for one pair
// inside a single simulation, with a persistent INTANG instance whose
// cache learns across trials (the Table 4 "INTANG Performance" row).
// Between trials it waits out any active blocklist period, as the
// paper's methodology did (§3.3).
func (r *Runner) RunINTANGSeries(vp VantagePoint, srv Server, trials int) []Outcome {
	rg := r.build(vp, srv, r.Topo, r.Censor, r.pairSeed(vp, srv), r.newArena())
	it := intang.New(rg.sim, rg.net, rg.cli, intang.Options{})
	it.Engine.Env.InsertionTTL = insertionTTL(srv)
	if r.Obs != nil {
		bundle := obs.New(r.Obs.Registry, obs.NewRecorder(obs.DefaultRingSize, rg.sim.Now))
		rg.attachObs(bundle)
		it.Obs = bundle
	}
	outcomes := make([]Outcome, 0, trials)
	for i := 0; i < trials; i++ {
		for _, dev := range rg.devices {
			dev.ClearStats()
		}
		conn := fetch(rg, srv, true)
		out := classify(rg, conn, true)
		outcomes = append(outcomes, out)
		if out == Failure2 {
			rg.sim.RunFor(95 * time.Second) // wait out the 90 s block
		} else {
			rg.sim.RunFor(2 * time.Second)
		}
	}
	if r.Obs != nil {
		r.Obs.absorbSeries(rg, outcomes)
	}
	return outcomes
}

// Tally aggregates outcomes into Success/Failure-1/Failure-2 counts.
type Tally struct {
	Success, Failure1, Failure2, Total int
}

// Add counts one outcome.
func (t *Tally) Add(o Outcome) {
	t.Total++
	switch o {
	case Success:
		t.Success++
	case Failure1:
		t.Failure1++
	default:
		t.Failure2++
	}
}

// only returns the outcome of a one-trial tally.
func (t Tally) only() Outcome {
	switch {
	case t.Success > 0:
		return Success
	case t.Failure1 > 0:
		return Failure1
	}
	return Failure2
}

// Rates returns the percentages (0-100).
func (t Tally) Rates() (s, f1, f2 float64) {
	if t.Total == 0 {
		return 0, 0, 0
	}
	n := float64(t.Total)
	return 100 * float64(t.Success) / n, 100 * float64(t.Failure1) / n, 100 * float64(t.Failure2) / n
}
