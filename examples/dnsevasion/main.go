// dnsevasion demonstrates §7.2: the GFW poisons UDP DNS lookups of a
// censored domain; INTANG's DNS forwarder converts them to evasion-
// protected DNS-over-TCP and returns the true answer transparently.
package main

import (
	"fmt"
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
	const domain = "www.dropbox.com"
	realAddr := packet.AddrFrom4(162, 125, 248, 18)
	resolverAddr := packet.AddrFrom4(216, 146, 35, 35)
	clientAddr := packet.AddrFrom4(10, 0, 0, 1)

	build := func(withINTANG bool) (answer packet.Addr, poisoned bool) {
		sim := netem.NewSimulator(3)
		path := netem.NewChain(sim, 10, netem.Link{}, netem.Link{Latency: time.Millisecond})
		dev := gfw.NewDevice("gfw", gfw.Config{
			Model:             gfw.ModelEvolved2017,
			PoisonedDomains:   []string{"dropbox.com"},
			DetectionMissProb: -1,
		}, sim.Rand())
		path.Node(3).Taps = []netem.Processor{dev} // the third router

		resolver := tcpstack.NewStack(resolverAddr, tcpstack.Linux44(), sim)
		resolver.AttachServer(path)
		zone := appsim.Zone{domain: realAddr}
		appsim.ServeDNSUDP(resolver, zone)
		appsim.ServeDNSTCP(resolver, zone)

		cli := tcpstack.NewStack(clientAddr, tcpstack.Linux44(), sim)
		if withINTANG {
			it := intang.New(sim, path, cli, intang.Options{
				Resolver:   resolverAddr,
				Candidates: []string{"improved-teardown"},
			})
			it.Engine.Env.InsertionTTL = 9
		} else {
			cli.AttachClient(path)
		}

		got := false
		cli.ListenUDP(5353, func(src packet.Addr, sp uint16, payload []byte) {
			if got {
				return // first answer wins, as in a real resolver library
			}
			if m, err := dnsmsg.Decode(payload); err == nil && len(m.Answers) > 0 {
				got = true
				answer = m.Answers[0].Addr
			}
		})
		q, err := dnsmsg.NewQuery(1, domain).Encode()
		if err != nil {
			panic(err)
		}
		cli.SendUDP(5353, resolverAddr, 53, q)
		sim.RunFor(10 * time.Second)
		return answer, answer == gfw.PoisonAddr
	}

	fmt.Printf("resolving %s through a censored path:\n\n", domain)
	ans, poisoned := build(false)
	fmt.Printf("plain UDP DNS:   %-16v poisoned=%v\n", ans, poisoned)
	ans, poisoned = build(true)
	fmt.Printf("INTANG forwarder: %-16v poisoned=%v (true address %v)\n", ans, poisoned, realAddr)
}
