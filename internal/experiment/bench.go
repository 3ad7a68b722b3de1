package experiment

// The persistent benchmark harness behind `make bench`: it measures the
// trial hot path, the serial/parallel campaign loops and the layer
// benchmarks in-process (via testing.Benchmark, so the numbers are
// directly comparable with `go test -bench`), benchRuns times each
// with the median ns/op and its range recorded, embeds the
// pre-pooling seed baseline, and renders the whole thing as
// BENCH_netem.json so regressions are a diff away.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/core"
	"intango/internal/device"
	"intango/internal/device/uis"
	"intango/internal/dpi"
	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// seedBaseline is the trial/campaign cost measured at this repo's
// pre-pooling parent commit (heap packets, container/heap event queue),
// on the reference container. It is embedded in every report so a
// single BENCH_netem.json answers "how far from the old cost are we?"
// without digging through git history.
func seedBaseline() BenchBaseline {
	return BenchBaseline{
		Commit: "994cc34 (pre-pooling seed)",
		Trial: BenchResult{
			NsPerOp:     109392,
			BytesPerOp:  80340,
			AllocsPerOp: 1069,
		},
		CampaignSerial: BenchResult{
			NsPerOp:     56981366,
			AllocsPerOp: 547502,
		},
		CampaignParallel: BenchResult{
			NsPerOp:     53374346,
			AllocsPerOp: 547516,
		},
	}
}

// BenchCampaignScale is the campaign shape the harness times: small
// enough to iterate in tens of milliseconds, large enough to exercise
// every strategy row and both keyword arms.
func BenchCampaignScale() Scale { return Scale{VPs: 3, Servers: 2, Trials: 1} }

// BenchResult is one measured benchmark, in go-test units.
type BenchResult struct {
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpMin and NsPerOpMax bound ns/op over the runs NsPerOp is
	// the median of. Absent from reports older than the spread.
	NsPerOpMin   float64 `json:"ns_per_op_min,omitempty"`
	NsPerOpMax   float64 `json:"ns_per_op_max,omitempty"`
	BytesPerOp   int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	TrialsPerSec float64 `json:"trials_per_sec,omitempty"`
}

// BenchBaseline pins the recorded pre-PR numbers a report is judged
// against.
type BenchBaseline struct {
	Commit           string      `json:"commit"`
	Trial            BenchResult `json:"trial"`
	CampaignSerial   BenchResult `json:"campaign_serial"`
	CampaignParallel BenchResult `json:"campaign_parallel"`
}

// BenchPoolStats mirrors packet.PoolStats with JSON names, plus the
// derived recycle count.
type BenchPoolStats struct {
	Gets     uint64 `json:"gets"`
	Puts     uint64 `json:"puts"`
	News     uint64 `json:"news"`
	Recycled uint64 `json:"recycled"`
}

// BenchReport is the schema of BENCH_netem.json.
type BenchReport struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	Seed      int64  `json:"seed"`

	Baseline BenchBaseline `json:"baseline"`

	// Trial is one RunOne (handshake, strategy volley, fetch,
	// classification) — the unit every campaign multiplies.
	Trial BenchResult `json:"trial"`
	// GoodputTrial is one bandwidth-constrained upload through the
	// congestion machinery (token-bucket shaper, finite queue, cwnd) —
	// the allocation cost of the goodput path when it is actually
	// exercised. Absent from pre-congestion reports.
	GoodputTrial BenchResult `json:"goodput_trial,omitempty"`
	// CampaignSerial/CampaignParallel run the full Table 1 strategy
	// grid at BenchCampaignScale per op.
	CampaignSerial   BenchResult `json:"campaign_serial"`
	CampaignParallel BenchResult `json:"campaign_parallel"`

	// TrialsPerCampaignOp is the trial count behind the campaign
	// trials_per_sec figures.
	TrialsPerCampaignOp int `json:"trials_per_campaign_op"`

	// Pool is the serial campaign runner's packet-pool traffic.
	Pool BenchPoolStats `json:"pool"`

	// Layers measures single layers in isolation (see benchLayers).
	// Absent from reports older than the layer ledger.
	Layers []BenchLayer `json:"layers,omitempty"`

	// AllocReductionPct is 100*(1 - trial allocs / baseline trial
	// allocs): the headline number the pooling work is judged by.
	AllocReductionPct float64 `json:"alloc_reduction_pct"`
}

// BenchLayer is one layer benchmark: what one unit of a layer's work
// costs on its own.
type BenchLayer struct {
	Name string `json:"name"`
	BenchResult
}

// benchLayers are the layer benchmarks `make bench` records and
// `make bench-gate` gates, by name.
var benchLayers = []struct {
	name  string
	bench func(*testing.B)
}{
	{"netem_event_loop", benchEventLoop},
	{"netem_rng_reseed", benchTrialRNG},
	{"netem_router_hop", benchRouterHop},
	{"gfw_block_volley", benchBlockVolley},
	{"dpi_scan", benchDPIScan},
	{"dpi_stream_feed", benchStreamFeed},
	{"uis_fetch", benchUISFetch},
	{"core_ipfrag_segment", benchIPFragSegment},
	{"tcpstack_segment", benchTCPSegment},
}

// layer returns the named layer's result, zero when absent.
func (rep BenchReport) layer(name string) BenchLayer {
	for _, l := range rep.Layers {
		if l.Name == name {
			return l
		}
	}
	return BenchLayer{Name: name}
}

// benchEventLoop runs the netem event loop at a campaign's queue shape:
// 33 events pending at every pop, 31 of them 1 ms link hops scheduled
// through AtPacket and two timers cycling through 200, 40 and 20 ms. A
// Table 1 sweep pops with about 32 events pending, 94 % of them 1 ms
// hops. One op is one event.
func benchEventLoop(b *testing.B) {
	m := &simMix{sim: netem.NewSimulator(1)}
	m.rearm = m.timer
	for i := 0; i < 31; i++ {
		m.sim.AtPacket(time.Millisecond, m, nil, 0, netem.ToServer)
	}
	for i := 0; i < 2; i++ {
		m.timer()
	}
	b.ReportAllocs()
	b.ResetTimer()
	m.sim.Run(b.N)
}

// simMix keeps benchEventLoop's queue at a fixed size: every event it
// runs schedules its successor.
type simMix struct {
	sim    *netem.Simulator
	timers int
	rearm  func() // timer, bound once so re-arming allocates nothing
}

var simMixTimers = [...]time.Duration{200 * time.Millisecond, 40 * time.Millisecond, 20 * time.Millisecond}

// HandlePacket relays a hop onto the next 1 ms link.
func (m *simMix) HandlePacket(pkt *packet.Packet, link int, dir netem.Direction) {
	m.sim.AtPacket(time.Millisecond, m, pkt, link, dir)
}

// timer re-arms itself with the next of the three timer delays.
func (m *simMix) timer() {
	m.timers++
	m.sim.At(simMixTimers[m.timers%len(simMixTimers)], m.rearm)
}

// trialDraws is how many draws a Table 1 trial takes from its trial
// RNG at perfbench's campaign scale: 46.6 on average.
const trialDraws = 47

// benchTrialRNG resets a simulator, reseeding its trial RNG, as a
// campaign arena does before each trial, and takes a trial's draws.
// One op is one trial's reseed and draws.
func benchTrialRNG(b *testing.B) {
	sim := netem.NewSimulator(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim.Reset(int64(i))
		for k := 0; k < trialDraws; k++ {
			sim.Rand().Float64()
		}
	}
}

// routerHops is benchRouterHop's chain length: as many plain routers
// as a TTL of 64 crosses with one to spare.
const routerHops = 62

// benchRouterHop runs one packet at a time across a chain of plain
// routers on 1 ms links, each endpoint answering a delivery with a new
// pooled packet back. One op is one event: routerHops of every
// routerHops+1 are a packet crossing one router (header check, TTL,
// route, schedule), the last a delivery and the send it answers with.
func benchRouterHop(b *testing.B) {
	sim := netem.NewSimulator(1)
	link := netem.Link{Latency: time.Millisecond}
	f := netem.NewChain(sim, routerHops, link, link)
	f.Pool = packet.NewPool()
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	f.Server = netem.EndpointFunc(func(*packet.Packet) {
		f.SendFromServer(f.Pool.NewTCP(srv, 80, cli, 40000, packet.FlagACK, 1, 1, nil))
	})
	f.Client = netem.EndpointFunc(func(*packet.Packet) {
		f.SendFromClient(f.Pool.NewTCP(cli, 40000, srv, 80, packet.FlagACK, 1, 1, nil))
	})
	f.SendFromClient(f.Pool.NewTCP(cli, 40000, srv, 80, packet.FlagACK, 1, 1, nil))
	b.ReportAllocs()
	b.ResetTimer()
	sim.Run(b.N)
}

// benchBlockVolley measures the GFW's answer to a packet of a blocked
// pair (§2.1): a type-2 device that detected the keyword sees one more
// client ACK and injects three resets toward each end, which the fabric
// then delivers. The links have no latency, so the 90 s block never
// lapses. One op is one volley, drained.
func benchBlockVolley(b *testing.B) {
	sim := netem.NewSimulator(1)
	f := netem.NewChain(sim, 1, netem.Link{}, netem.Link{})
	f.Pool = packet.NewPool()
	dev := gfw.NewDevice("gfw", gfw.Config{Model: gfw.ModelEvolved2017, Keywords: []string{Keyword},
		DetectionMissProb: -1}, sim.Rand())
	f.Node(1).Taps = []netem.Processor{dev}
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	f.SendFromClient(packet.NewTCP(cli, 40000, srv, 80, packet.FlagSYN, 1000, 0, nil))
	f.SendFromServer(packet.NewTCP(srv, 80, cli, 40000, packet.FlagSYN|packet.FlagACK, 5000, 1001, nil))
	f.SendFromClient(packet.NewTCP(cli, 40000, srv, 80, packet.FlagACK, 1001, 5001, nil))
	f.SendFromClient(packet.NewTCP(cli, 40000, srv, 80, packet.FlagPSH|packet.FlagACK, 1001, 5001,
		[]byte("GET /search?q="+Keyword+" HTTP/1.1\r\n\r\n")))
	sim.Run(1000)
	if !dev.PairBlocked(cli, srv, sim.Now()) {
		b.Fatal("the keyword request did not block the pair")
	}
	ctx := &netem.Context{Sim: sim, Net: f, Node: 1}
	ack := packet.NewTCP(cli, 40000, srv, 80, packet.FlagACK, 1040, 5001, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Process(ctx, ack, netem.ToServer)
		sim.Run(1000)
	}
}

// benchDPIScan runs the keyword automaton over a 1 KiB payload of
// repeated alphabet with a six-keyword list, as a type-1 device checks
// one segment. Five of the six keywords start with a distinct letter,
// so 5 bytes in 26 leave the automaton's root. One op is one scan.
func benchDPIScan(b *testing.B) {
	m := dpi.NewMatcher([]string{"ultrasurf", "falun", "freegate", "dynaweb", "tiananmen", "vpn over tcp"})
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Contains(payload) {
			b.Fatal("unexpected match")
		}
	}
}

// benchStreamFeed feeds a type-2 device's stream scanner, keyword
// Keyword, one 1,460-byte segment of the goodput upload body, as the
// GFW scans each segment of an upload. One op is one segment.
func benchStreamFeed(b *testing.B) {
	body := appsim.HTTPUpload("upload.example", "/upload", 2*1460)
	seg := body[len(body)-1460:]
	sc := dpi.NewMatcher([]string{Keyword}).NewStreamScanner()
	b.SetBytes(int64(len(seg)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if sc.Feed(seg) != nil {
			b.Fatal("unexpected match")
		}
	}
}

// uisFetchStep is how far benchUISFetch advances its clock after each
// fetch: half of tcpstack.MinRTO, so a fetch's retransmission timers
// fire two fetches later, when the pipe's order guarantees that all
// they guard has been acknowledged, and TIME_WAIT frees each client
// port long before the ports wrap.
const uisFetchStep = tcpstack.MinRTO / 2

// benchUISFetch runs one fetch between two uis stacks joined by a pipe
// on a stopped clock, as a live daemon's client does one: a dial, a
// one-segment request, a one-segment response, and the close, the
// client's FIN first and the server's after it. One op is one fetch.
func benchUISFetch(b *testing.B) {
	clk := netem.NewClock(1, 1) // never started: only Advance moves it
	a, c := device.NewPipe(clk, 0)
	cliAddr, srvAddr := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	srv := uis.New(a, uis.Config{Addr: srvAddr, Seed: 2})
	cli := uis.New(c, uis.Config{Addr: cliAddr, Seed: 1})
	defer srv.Close()
	defer cli.Close()
	l, err := srv.Listen(80)
	if err != nil {
		b.Fatal(err)
	}
	req := appsim.HTTPRequest("origin.example", "/")
	resp := []byte("HTTP/1.1 200 OK\r\nServer: sim\r\nContent-Length: 2\r\n\r\nok")
	go func() {
		buf := make([]byte, 512)
		for {
			conn, err := l.Accept()
			if err != nil {
				return // the device closed
			}
			conn.Read(buf) // the request
			conn.Write(resp)
			conn.Read(buf) // EOF: the client's FIN
			conn.Close()
		}
	}()
	buf := make([]byte, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := cli.Dial(srvAddr, 80)
		if err != nil {
			b.Fatalf("fetch %d: dial: %v", i, err)
		}
		conn.Write(req)
		if n, err := conn.Read(buf); err != nil || n != len(resp) {
			b.Fatalf("fetch %d: read %d bytes: %v", i, n, err)
		}
		conn.Close()
		clk.Advance(uisFetchStep)
	}
}

// benchIPFragSegment sends one 1,460-byte segment through the goodput
// matrix's sustained ooo-ipfrag — three IP fragments of at most 512
// bytes and two junk decoys — across one bare link into a last-wins
// Reassembler, which rebuilds the segment as the QCloud middlebox
// does. Every packet is released: the engine the segment its pieces
// replaced, the fabric each piece it delivers, the endpoint the
// rebuilt datagram. One op is one segment.
func benchIPFragSegment(b *testing.B) {
	sim := netem.NewSimulator(1)
	f := netem.NewChain(sim, 0, netem.Link{}, netem.Link{})
	f.Pool = packet.NewPool()
	r := packet.NewReassembler(packet.LastWins)
	rebuilt := 0
	f.Server = netem.EndpointFunc(func(pkt *packet.Packet) {
		if whole, err := r.AddAt(pkt, sim.Now()); err == nil && whole != nil {
			rebuilt++
			f.Release(whole)
		}
	})
	factory := goodputFactory("ooo-ipfrag")
	e := core.NewEngine(sim, f, nil, core.DefaultEnv(8, sim.Rand()))
	e.NewStrategy = func(packet.FourTuple) core.Strategy { return factory() }
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	payload := make([]byte, 1460)
	seq := packet.Seq(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := f.Pool.NewTCP(cli, 40000, srv, 80, packet.FlagPSH|packet.FlagACK, seq, 1, payload)
		seg.AddTimestampOption(uint32(i), 1) // a Linux segment's 32-byte header
		e.Outbound(seg.Finalize())
		sim.Run(16)
		seq = seq.Add(len(payload))
	}
	if rebuilt != b.N {
		b.Fatalf("%d segments rebuilt of %d", rebuilt, b.N)
	}
}

// tcpSegmentCycle is how many segments benchTCPSegment delivers on one
// connection before it resets the simulator and accepts the next: the
// set-up's dozen allocations come to well under one per op.
const tcpSegmentCycle = 256

// benchTCPSegment delivers 1,460-byte segments to an established
// connection of a Linux 4.4 server stack whose simulator lends, as an
// upload's server receives them under a reorder strategy, in pairs:
// first a segment early, which is copied into the out-of-order queue,
// then the segment at the edge, which delivers both. A connection
// lives tcpSegmentCycle segments under one overlap policy; then the
// simulator is reset, taking back the receive and out-of-order
// buffers, and a new connection takes the other policy. One op is one
// segment and the ACK it draws.
func benchTCPSegment(b *testing.B) {
	sim := netem.NewSimulator(1)
	pool := packet.NewPool()
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	payload := make([]byte, 1460)
	const iss = packet.Seq(1000)
	var (
		stack     *tcpstack.Stack
		conn      *tcpstack.Conn
		ack, next packet.Seq
	)
	send := func(p *packet.Packet) {
		if p.TCP.HasFlag(packet.FlagSYN) {
			ack = p.TCP.Seq.Add(1)
		}
		p.Release()
	}
	accept := func(c *tcpstack.Conn) { conn = c }
	deliver := func(flags uint8, seq packet.Seq, data []byte) {
		p := pool.NewTCP(cli, 40000, srv, 80, flags, seq, ack, data)
		stack.Deliver(p)
		p.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%tcpSegmentCycle == 0 {
			sim.Reset(int64(i))
			prof := tcpstack.Linux44()
			if i/tcpSegmentCycle%2 == 1 {
				prof.SegmentOverlap = packet.LastWins
			}
			stack = tcpstack.NewStack(srv, prof, sim)
			stack.Pool, stack.Send = pool, send
			stack.Listen(80, accept)
			deliver(packet.FlagSYN, iss, nil)
			deliver(packet.FlagACK, iss.Add(1), nil)
			next = iss.Add(1)
		}
		if i%2 == 0 {
			deliver(packet.FlagPSH|packet.FlagACK, next.Add(len(payload)), payload)
		} else {
			deliver(packet.FlagPSH|packet.FlagACK, next, payload)
			next = next.Add(2 * len(payload))
		}
	}
	if conn.RcvNxt() != next {
		b.Fatalf("the last connection acknowledged up to %d, want %d", conn.RcvNxt(), next)
	}
}

// benchRuns is how many times `make bench` runs each section and each
// layer. It records the median ns/op with the range, so a reader can
// tell a change from the machine's noise; B/op and allocs/op come from
// the first run.
const benchRuns = 5

// benchRunTime is the length of each run (go test's -benchtime): five
// runs of the default second would keep `make bench` over a minute.
const benchRunTime = 400 * time.Millisecond

// measure runs bench benchRuns times. trialsPerOp, when positive,
// turns the median into trials/sec.
func measure(bench func(*testing.B), trialsPerOp int) BenchResult {
	var out BenchResult
	ns := make([]float64, benchRuns)
	for i := range ns {
		r := testing.Benchmark(bench)
		if i == 0 {
			out.BytesPerOp, out.AllocsPerOp = r.AllocedBytesPerOp(), r.AllocsPerOp()
		}
		ns[i] = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	sort.Float64s(ns)
	out.NsPerOp, out.NsPerOpMin, out.NsPerOpMax = ns[len(ns)/2], ns[0], ns[len(ns)-1]
	if trialsPerOp > 0 && out.NsPerOp > 0 {
		out.TrialsPerSec = float64(trialsPerOp) / (out.NsPerOp / 1e9)
	}
	return out
}

// RunBench measures the hot path and both campaign modes and returns
// the full report. Each section uses a fresh Runner so pool statistics
// and RNG streams are attributable. Each run lasts benchRunTime: it
// sets go test's -test.benchtime, which testing.Init registers, for
// its duration.
func RunBench(seed int64) BenchReport {
	testing.Init()
	benchtime := flag.Lookup("test.benchtime").Value
	defer benchtime.Set(benchtime.String())
	if err := benchtime.Set(benchRunTime.String()); err != nil {
		panic(err)
	}
	rep := BenchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Seed:      seed,
		Baseline:  seedBaseline(),
	}

	// Single-trial hot path, the allocs/op headline.
	rep.Trial = measure(benchTrial(seed), 0) // trials/sec is a campaign-level figure

	rep.GoodputTrial = measure(benchGoodputTrial(seed), 0)

	sc := BenchCampaignScale()
	rep.TrialsPerCampaignOp = 2 * len(table1Strategies()) * sc.VPs * sc.Servers * sc.Trials

	var poolStats packet.PoolStats
	rep.CampaignSerial = measure(func(b *testing.B) {
		r := NewRunner(seed)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rows := RunTable1(r, sc); len(rows) != len(table1Strategies()) {
				b.Fatalf("rows = %d", len(rows))
			}
		}
		poolStats = r.PoolStats()
	}, rep.TrialsPerCampaignOp)
	rep.Pool = BenchPoolStats{
		Gets:     poolStats.Gets,
		Puts:     poolStats.Puts,
		News:     poolStats.News,
		Recycled: poolStats.Recycled(),
	}

	rep.CampaignParallel = measure(benchCampaignParallel(seed), rep.TrialsPerCampaignOp)

	for _, l := range benchLayers {
		rep.Layers = append(rep.Layers, BenchLayer{Name: l.name, BenchResult: measure(l.bench, 0)})
	}

	if base := rep.Baseline.Trial.AllocsPerOp; base > 0 {
		rep.AllocReductionPct = 100 * (1 - float64(rep.Trial.AllocsPerOp)/float64(base))
	}
	return rep
}

// benchTrial benchmarks one RunOne, the unit every campaign multiplies.
func benchTrial(seed int64) func(b *testing.B) {
	return func(b *testing.B) {
		r := NewRunner(seed)
		vp := VantagePoints()[0]
		srv := Servers(1, r.Cal, seed)[0]
		factory, _, _ := core.ResolveStrategy("teardown-rst/ttl")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunOne(vp, srv, factory, true, i)
		}
	}
}

// benchGoodputTrial benchmarks one 64 KiB upload through the
// bw=1mbit,queue=16 access link, congestion control and the shaper
// both live, on one recycled arena as RunGoodput's trials run.
func benchGoodputTrial(seed int64) func(b *testing.B) {
	return func(b *testing.B) {
		r := NewRunner(seed)
		vp := VantagePoints()[6]
		srv := controlledServers(r, 1)[0]
		// An inject strategy: the plain congested transfer.
		factory, _, _ := core.ResolveStrategy("teardown-rst/ttl")
		spec := goodputTopo(vp, srv)
		upload := goodputUpload(srv)
		a := r.newArena()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.runGoodputTrial(vp, srv, spec, factory, upload, i, nil, a)
		}
	}
}

// benchCampaignParallel benchmarks the Table 1 campaign at
// BenchCampaignScale through the campaign executor.
func benchCampaignParallel(seed int64) func(b *testing.B) {
	return func(b *testing.B) {
		r := NewRunner(seed)
		sc := BenchCampaignScale()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rows := RunTable1Parallel(r, sc); len(rows) != len(table1Strategies()) {
				b.Fatalf("rows = %d", len(rows))
			}
		}
	}
}

// BenchGateTolerance is the allocs/op regression budget the CI bench
// gate allows over the committed report before failing.
const BenchGateTolerance = 0.05

// BenchGate is one gated figure: a section's re-measured allocs/op or
// B/op (Unit), the committed figure, and the limit the tolerance
// allows.
type BenchGate struct {
	Section, Unit              string
	Measured, Committed, Limit int64
}

// OK reports whether the measured figure is within the limit.
func (g BenchGate) OK() bool { return g.Measured <= g.Limit }

// RunBenchGate re-measures allocs/op for the single-trial hot path,
// the goodput trial, the parallel campaign executor at
// BenchCampaignScale and every layer benchmark, and the goodput
// trial's B/op, and judges each against the committed report's figure
// with the given fractional tolerance (<=0 selects
// BenchGateTolerance); a layer committing 0 allocs/op, or missing from
// an older report, must measure 0. It measures only allocation — which
// varies far less than ns/op — so the gate holds on loaded CI
// machines. The trial's, the goodput trial's and the layers' counts
// repeat exactly; the parallel campaign's does not at GOMAXPROCS 2
// (five runs read 13,962–14,062), and the tolerance absorbs that. The
// goodput section guards the bulk path a short trial never exercises
// (per-segment reassembly and scanning, fragment assembly and receive
// buffers): its B/op catches a byte diet regressing, which allocs/op
// alone cannot see. The campaign section catches executor regressions
// a single RunOne cannot see, such as instrumenting trials nobody
// asked to observe.
func RunBenchGate(seed int64, committed BenchReport, tolerance float64) []BenchGate {
	if tolerance <= 0 {
		tolerance = BenchGateTolerance
	}
	judge := func(section, unit string, measured, committed int64) BenchGate {
		return BenchGate{Section: section, Unit: unit, Measured: measured, Committed: committed,
			Limit: int64(float64(committed) * (1 + tolerance))}
	}
	allocs := func(section string, committed int64, bench func(b *testing.B)) BenchGate {
		return judge(section, "allocs/op", testing.Benchmark(bench).AllocsPerOp(), committed)
	}
	goodput := testing.Benchmark(benchGoodputTrial(seed))
	gates := []BenchGate{
		allocs("trial", committed.Trial.AllocsPerOp, benchTrial(seed)),
		judge("goodput_trial", "allocs/op", goodput.AllocsPerOp(), committed.GoodputTrial.AllocsPerOp),
		judge("goodput_trial", "B/op", goodput.AllocedBytesPerOp(), committed.GoodputTrial.BytesPerOp),
		allocs("campaign_parallel", committed.CampaignParallel.AllocsPerOp, benchCampaignParallel(seed)),
	}
	for _, l := range benchLayers {
		gates = append(gates, allocs("layers/"+l.name, committed.layer(l.name).AllocsPerOp, l.bench))
	}
	return gates
}

// WriteBenchJSON renders the report as indented JSON (the
// BENCH_netem.json format).
func WriteBenchJSON(w io.Writer, rep BenchReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// ReadBenchJSON parses a report written by WriteBenchJSON.
func ReadBenchJSON(r io.Reader) (BenchReport, error) {
	var rep BenchReport
	err := json.NewDecoder(r).Decode(&rep)
	return rep, err
}

func pctDelta(oldV, newV float64) string {
	if oldV == 0 {
		return "   n/a"
	}
	return fmt.Sprintf("%+5.1f%%", 100*(newV-oldV)/oldV)
}

// spread renders a result's ns/op range over its runs relative to
// the median, "n/a" for a report older than the spread.
func spread(r BenchResult) string {
	if r.NsPerOpMax == 0 || r.NsPerOp == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*(r.NsPerOpMax-r.NsPerOpMin)/r.NsPerOp)
}

func benchLine(b *strings.Builder, name string, cur, base BenchResult) {
	fmt.Fprintf(b, "  %-18s %12.0f ns/op, spread %5s (%s vs baseline)   %9d B/op (%s)   %8d allocs/op (%s)\n",
		name, cur.NsPerOp, spread(cur), pctDelta(base.NsPerOp, cur.NsPerOp),
		cur.BytesPerOp, pctDelta(float64(base.BytesPerOp), float64(cur.BytesPerOp)),
		cur.AllocsPerOp, pctDelta(float64(base.AllocsPerOp), float64(cur.AllocsPerOp)))
}

// FormatBenchReport renders the report for humans, deltas against the
// embedded baseline included.
func FormatBenchReport(rep BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== benchmark: trial hot path and campaigns (%s %s/%s, %d CPUs, seed %d) ==\n",
		rep.GoVersion, rep.GOOS, rep.GOARCH, rep.NumCPU, rep.Seed)
	fmt.Fprintf(&b, "baseline: %s\n", rep.Baseline.Commit)
	benchLine(&b, "trial", rep.Trial, rep.Baseline.Trial)
	if rep.GoodputTrial.NsPerOp > 0 {
		// No pre-congestion baseline exists for the goodput path; the
		// line still records ns/op, B/op and allocs/op for bench-compare.
		benchLine(&b, "goodput trial", rep.GoodputTrial, BenchResult{})
	}
	benchLine(&b, "campaign/serial", rep.CampaignSerial, rep.Baseline.CampaignSerial)
	benchLine(&b, "campaign/parallel", rep.CampaignParallel, rep.Baseline.CampaignParallel)
	fmt.Fprintf(&b, "  %-18s serial %.0f trials/s, parallel %.0f trials/s (%d trials per campaign op)\n",
		"throughput", rep.CampaignSerial.TrialsPerSec, rep.CampaignParallel.TrialsPerSec, rep.TrialsPerCampaignOp)
	fmt.Fprintf(&b, "  %-18s gets %d, puts %d, news %d, recycled %d (%.1f%% of gets)\n",
		"packet pool", rep.Pool.Gets, rep.Pool.Puts, rep.Pool.News, rep.Pool.Recycled,
		safePct(rep.Pool.Recycled, rep.Pool.Gets))
	fmt.Fprintf(&b, "  %-18s %.1f%% fewer allocs per trial than the pre-pooling seed\n",
		"headline", rep.AllocReductionPct)
	for _, l := range rep.Layers {
		fmt.Fprintf(&b, "  %-18s %12.1f ns/op, spread %5s   %9d B/op   %8d allocs/op\n",
			l.Name, l.NsPerOp, spread(l.BenchResult), l.BytesPerOp, l.AllocsPerOp)
	}
	return b.String()
}

func safePct(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// CompareBenchReports diffs two BENCH_netem.json files (typically an
// old artifact vs a fresh `make bench` run) section by section. Beside
// each ns/op delta it prints both sides' spread (the range over the
// runs relative to the median; n/a for a report older than it), so a
// delta inside the noise reads as such.
func CompareBenchReports(oldRep, newRep BenchReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== benchmark comparison (old: %s/%s ×%d, new: %s/%s ×%d) ==\n",
		oldRep.GOOS, oldRep.GOARCH, oldRep.NumCPU, newRep.GOOS, newRep.GOARCH, newRep.NumCPU)
	fmt.Fprintf(&b, "%-18s %14s %14s %8s %15s   %12s %12s %8s   %12s %12s %8s\n",
		"", "old ns/op", "new ns/op", "Δ", "spread old/new", "old B/op", "new B/op", "Δ", "old allocs", "new allocs", "Δ")
	row := func(name string, o, n BenchResult) {
		fmt.Fprintf(&b, "%-18s %14.0f %14.0f %8s %15s   %12d %12d %8s   %12d %12d %8s\n",
			name, o.NsPerOp, n.NsPerOp, strings.TrimSpace(pctDelta(o.NsPerOp, n.NsPerOp)), spread(o)+"/"+spread(n),
			o.BytesPerOp, n.BytesPerOp,
			strings.TrimSpace(pctDelta(float64(o.BytesPerOp), float64(n.BytesPerOp))),
			o.AllocsPerOp, n.AllocsPerOp,
			strings.TrimSpace(pctDelta(float64(o.AllocsPerOp), float64(n.AllocsPerOp))))
	}
	row("trial", oldRep.Trial, newRep.Trial)
	if oldRep.GoodputTrial.NsPerOp > 0 || newRep.GoodputTrial.NsPerOp > 0 {
		row("goodput trial", oldRep.GoodputTrial, newRep.GoodputTrial)
	}
	row("campaign/serial", oldRep.CampaignSerial, newRep.CampaignSerial)
	row("campaign/parallel", oldRep.CampaignParallel, newRep.CampaignParallel)
	for _, l := range newRep.Layers {
		row(l.Name, oldRep.layer(l.Name).BenchResult, l.BenchResult)
	}
	if oldRep.CampaignParallel.TrialsPerSec > 0 && newRep.CampaignParallel.TrialsPerSec > 0 {
		fmt.Fprintf(&b, "%-18s %14.0f %14.0f %8s   (parallel trials/sec)\n", "throughput",
			oldRep.CampaignParallel.TrialsPerSec, newRep.CampaignParallel.TrialsPerSec,
			strings.TrimSpace(pctDelta(oldRep.CampaignParallel.TrialsPerSec, newRep.CampaignParallel.TrialsPerSec)))
	}
	return b.String()
}
