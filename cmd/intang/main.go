// Command intang runs the INTANG evasion engine against a simulated
// GFW path and reports what happened — the quickest way to see the
// whole system end to end.
//
// Usage:
//
//	intang [-strategy name|spec|auto] [-keyword word] [-trials n] [-trace] [-stats] [-list]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"intango/internal/appsim"
	"intango/internal/core"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/pcap"
	"intango/internal/tcpstack"
)

func main() {
	var (
		strategy = flag.String("strategy", "auto", "strategy name, raw spec text, 'none', or 'auto' (INTANG selection)")
		keyword  = flag.String("keyword", "ultrasurf", "sensitive keyword the simulated GFW censors")
		trials   = flag.Int("trials", 5, "number of sensitive fetches")
		seed     = flag.Int64("seed", 1, "simulation seed")
		trace    = flag.Bool("trace", false, "print the packet-level trace of the first trial")
		stats    = flag.Bool("stats", false, "print observability counters at exit")
		pcapOut  = flag.String("pcap", "", "write a pcap capture of all traffic to this file")
		list     = flag.Bool("list", false, "list available strategies and exit")
	)
	flag.Parse()

	if *list {
		fmt.Print(core.FormatStrategyTable())
		return
	}

	sim := netem.NewSimulator(*seed)
	const hops = 10
	link := netem.Link{Latency: time.Millisecond}
	path := netem.NewChain(sim, hops, link, link)

	cfg := gfw.Config{Model: gfw.ModelEvolved2017, Keywords: []string{*keyword}, DetectionMissProb: -1}
	dev := gfw.NewDevice("gfw", cfg, sim.Rand())
	path.Node(3).Taps = []netem.Processor{dev} // the third router

	cliAddr := packet.AddrFrom4(10, 0, 0, 1)
	srvAddr := packet.AddrFrom4(203, 0, 113, 80)
	cli := tcpstack.NewStack(cliAddr, tcpstack.Linux44(), sim)
	srv := tcpstack.NewStack(srvAddr, tcpstack.Linux44(), sim)
	srv.AttachServer(path)
	appsim.ServeHTTP(srv, 80)

	var engine *core.Engine
	var it *intang.INTANG
	switch *strategy {
	case "auto":
		it = intang.New(sim, path, cli, intang.Options{})
		engine = it.Engine
		it.MeasureHops(srvAddr, 80)
		sim.RunFor(2 * time.Second)
		if h, ok := it.HopsTo(srvAddr); ok {
			fmt.Printf("measured hop count: %d (insertion TTL %d)\n", h, engine.Env.InsertionTTL)
		}
	case "none":
		engine = core.NewEngine(sim, path, cli, core.DefaultEnv(hops-1, sim.Rand()))
	default:
		// A registered name or raw spec text, e.g.
		// -strategy 'on:first-payload[teardown(flags=rst,disc=md5)]'.
		factory, _, err := core.ResolveStrategy(*strategy)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-strategy: %v\n(-list shows the registered names)\n", err)
			os.Exit(2)
		}
		engine = core.NewEngine(sim, path, cli, core.DefaultEnv(hops-1, sim.Rand()))
		engine.NewStrategy = func(packet.FourTuple) core.Strategy { return factory() }
	}

	var reg *obs.Registry
	if *stats {
		reg = obs.NewRegistry()
		bundle := obs.New(reg, obs.NewRecorder(obs.DefaultRingSize, sim.Now))
		path.Obs = bundle
		dev.Obs = bundle
		cli.Obs = bundle
		srv.Obs = bundle
		if it != nil {
			it.Obs = bundle
		}
	}

	var traceFn func(ev netem.TraceEvent)
	if *trace {
		traceFn = func(ev netem.TraceEvent) {
			if ev.Event == "send" || ev.Event == "deliver" || ev.Event == "inject" || ev.Event == "drop-ttl" || ev.Event == "drop-proc" {
				fmt.Println("  ", ev)
			}
		}
	}
	var capture func(ev netem.TraceEvent)
	if *pcapOut != "" {
		f, err := os.Create(*pcapOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		defer fmt.Printf("capture written to %s\n", *pcapOut)
		capture = pcap.Attach(pcap.NewWriter(f), nil)
	}
	path.Trace = func(ev netem.TraceEvent) {
		if traceFn != nil {
			traceFn(ev)
		}
		if capture != nil {
			capture(ev)
		}
	}

	success := 0
	for i := 0; i < *trials; i++ {
		for k := range dev.Stats {
			delete(dev.Stats, k)
		}
		conn := cli.Connect(srvAddr, 80)
		sim.RunFor(500 * time.Millisecond)
		if conn.State() == tcpstack.Established {
			conn.Write(appsim.HTTPRequest("site.example", "/?q="+*keyword))
		}
		sim.RunFor(8 * time.Second)
		injected := dev.Stats["inject-type1"]+dev.Stats["inject-type2"]+dev.Stats["block-enforce"]+dev.Stats["forged-synack"] > 0
		outcome := "failure-1"
		if appsim.HTTPResponseComplete(conn.Received()) && !(conn.GotRST && injected) {
			outcome = "success"
			success++
		} else if conn.GotRST && injected {
			outcome = "failure-2"
		}
		used := *strategy
		if it != nil {
			used = it.ChooseStrategy(srvAddr)
		}
		fmt.Printf("trial %d: %-9s (strategy %s)\n", i+1, outcome, used)
		if outcome == "failure-2" {
			sim.RunFor(95 * time.Second)
		}
		traceFn = nil // print-trace only the first trial; keep capturing
	}
	fmt.Printf("\n%d/%d sensitive fetches evaded the GFW\n", success, *trials)
	if *stats {
		path.FlushCounters()
		fmt.Println("\n== observability counters ==")
		reg.Snapshot().WriteText(os.Stdout)
	}
}
