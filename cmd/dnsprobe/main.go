// Command dnsprobe reproduces the §6 poisoned-domain discovery: INTANG
// "probed GFW with Alexa's top 1 million domain names to generate a
// list of poisoned domain names". It builds a censored path, probes a
// candidate list with plain UDP queries, and prints which domains the
// simulated GFW poisons — then shows the same list resolving cleanly
// through INTANG's protected DNS-over-TCP forwarder.
package main

import (
	"flag"
	"fmt"
	"strings"
	"time"

	"intango/internal/appsim"
	"intango/internal/dnsmsg"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "simulation seed")
		domains = flag.String("domains", "www.dropbox.com,www.facebook.com,twitter.com,www.example.com,news.ycombinator.com,golang.org", "comma-separated candidates")
		blocked = flag.String("blocked", "dropbox.com,facebook.com,twitter.com", "domains the simulated GFW poisons (suffix match)")
	)
	flag.Parse()

	sim := netem.NewSimulator(*seed)
	path := netem.NewChain(sim, 10, netem.Link{}, netem.Link{Latency: time.Millisecond})
	resolverAddr := packet.AddrFrom4(216, 146, 35, 35)
	clientAddr := packet.AddrFrom4(10, 0, 0, 1)

	dev := gfw.NewDevice("gfw", gfw.Config{
		Model:             gfw.ModelEvolved2017,
		PoisonedDomains:   strings.Split(*blocked, ","),
		DetectionMissProb: -1,
	}, sim.Rand())
	path.Node(3).Taps = []netem.Processor{dev} // the third router

	resolver := tcpstack.NewStack(resolverAddr, tcpstack.Linux44(), sim)
	resolver.AttachServer(path)
	appsim.ServeDNSUDP(resolver, appsim.Zone{})
	appsim.ServeDNSTCP(resolver, appsim.Zone{})

	cli := tcpstack.NewStack(clientAddr, tcpstack.Linux44(), sim)
	it := intang.New(sim, path, cli, intang.Options{
		Resolver:   resolverAddr,
		Candidates: []string{"improved-teardown"},
	})
	it.Engine.Env.InsertionTTL = 9
	// Plain-UDP probing must bypass the forwarder: detach it while the
	// hold-on probe runs.
	it.Engine.OnOutbound = nil

	candidates := strings.Split(*domains, ",")
	fmt.Printf("probing %d candidate domains over plain UDP (hold-on heuristic):\n", len(candidates))
	results := intang.ProbePoisonedDomains(sim, cli, resolverAddr, candidates)
	for _, res := range results {
		verdict := "clean"
		if res.Poisoned {
			verdict = "POISONED"
		}
		fmt.Printf("  %-26s %-9s answers=%v\n", res.Domain, verdict, res.Answers)
	}

	poisoned := intang.PoisonedList(results)
	fmt.Printf("\n%d poisoned; re-resolving them through INTANG's DNS forwarder:\n", len(poisoned))
	// Reattach the forwarder.
	it2 := intang.New(sim, path, cli, intang.Options{
		Resolver:   resolverAddr,
		Candidates: []string{"improved-teardown"},
	})
	it2.Engine.Env.InsertionTTL = 9
	for i, domain := range poisoned {
		got := packet.Addr{}
		done := false
		port := uint16(6100 + i)
		cli.ListenUDP(port, func(src packet.Addr, sp uint16, payload []byte) {
			if done {
				return
			}
			if m, err := dnsmsg.Decode(payload); err == nil && len(m.Answers) > 0 {
				done = true
				got = m.Answers[0].Addr
			}
		})
		q, err := dnsmsg.NewQuery(uint16(100+i), domain).Encode()
		if err != nil {
			continue
		}
		cli.SendUDP(port, resolverAddr, 53, q)
		sim.RunFor(8 * time.Second)
		status := "FAILED"
		if done && !isPoisonAddr(got) {
			status = "clean answer"
		}
		fmt.Printf("  %-26s %-14s %v\n", domain, status, got)
	}
}

func isPoisonAddr(a packet.Addr) bool { return a == gfw.PoisonAddr }
