package experiment

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/appsim"
	"intango/internal/dnsmsg"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// CensoredDomain is the domain §7.2 probes with.
const CensoredDomain = "www.dropbox.com"

// Resolver is one public DNS resolver target of §7.2.
type Resolver struct {
	Name string
	Addr packet.Addr
	// Censored: the GFW censors DNS on paths to this resolver. §7.2
	// accidentally discovered that OpenDNS's resolvers see no DNS
	// censorship at all.
	Censored bool
}

// Resolvers returns the §7.2 resolver set.
func Resolvers() []Resolver {
	return []Resolver{
		{Name: "Dyn 1", Addr: packet.AddrFrom4(216, 146, 35, 35), Censored: true},
		{Name: "Dyn 2", Addr: packet.AddrFrom4(216, 146, 36, 36), Censored: true},
		{Name: "OpenDNS 1", Addr: packet.AddrFrom4(208, 67, 222, 222), Censored: false},
		{Name: "OpenDNS 2", Addr: packet.AddrFrom4(208, 67, 220, 220), Censored: false},
	}
}

// Table6Row is one resolver's aggregate success.
type Table6Row struct {
	Resolver      string
	IP            string
	ExceptTianjin float64 // success % over the other 10 VPs
	All           float64 // success % over all 11 VPs
}

// RunTable6 reproduces Table 6: repeated queries for a censored domain
// via TCP DNS through each resolver, from every vantage point, using
// INTANG's DNS forwarder with the improved TCB-teardown strategy.
func RunTable6(r *Runner, queries int) []Table6Row {
	var rows []Table6Row
	realAddr := packet.AddrFrom4(162, 125, 248, 18)
	for _, resolver := range Resolvers() {
		var allOK, allN, exTJOK, exTJN int
		for _, vp := range VantagePoints() {
			ok := r.runDNSSeries(vp, resolver, realAddr, queries)
			allOK += ok
			allN += queries
			if vp.City != "tianjin" {
				exTJOK += ok
				exTJN += queries
			}
		}
		rows = append(rows, Table6Row{
			Resolver:      resolver.Name,
			IP:            resolver.Addr.String(),
			ExceptTianjin: 100 * float64(exTJOK) / float64(exTJN),
			All:           100 * float64(allOK) / float64(allN),
		})
	}
	return rows
}

// runDNSSeries issues queries for the censored domain from vp through
// resolver and counts correct answers.
func (r *Runner) runDNSSeries(vp VantagePoint, resolver Resolver, realAddr packet.Addr, queries int) int {
	sim := netem.NewSimulator(r.pairSeed(vp, Server{Name: resolver.Name}))
	const hops = 10
	link := netem.Link{Latency: time.Millisecond}
	path := netem.NewChain(sim, hops, link, link)
	if chain := middlebox.BuildProfile(vp.Profile, sim.Rand()); chain != nil {
		path.Node(1).Processors = chain
	}
	cfg := gfwConfig(gfw.ModelEvolved2017, r.Cal)
	if resolver.Censored {
		cfg.PoisonedDomains = []string{"dropbox.com"}
	}
	dev := gfw.NewDevice("gfw", cfg, sim.Rand())
	path.Node(4).Taps = []netem.Processor{dev} // the fourth router
	// The Tianjin anomaly: a stateful firewall beyond the GFW on the
	// resolver paths that (usually) honors the RST insertion packets.
	if vp.ResolverPathFirewall {
		fw := middlebox.NewStatefulFirewall("resolver-fw", false)
		fw.SetRSTHonorProb(0.65, sim.Rand())
		path.Node(5).Processors = append(path.Node(5).Processors, fw)
	}

	cli := tcpstack.NewStack(vp.Addr, tcpstack.Linux44(), sim)
	srv := tcpstack.NewStack(resolver.Addr, tcpstack.Linux44(), sim)
	srv.AttachServer(path)
	appsim.ServeDNSTCP(srv, appsim.Zone{CensoredDomain: realAddr})
	appsim.ServeDNSUDP(srv, appsim.Zone{CensoredDomain: realAddr})

	// §7.2 methodology: the Dyn resolvers are probed through INTANG's
	// improved TCB-teardown strategy; the OpenDNS resolvers were found
	// to need no evasion at all, so they are queried bare.
	candidates := []string{"improved-teardown"}
	if !resolver.Censored {
		candidates = []string{"none"}
	}
	it := intang.New(sim, path, cli, intang.Options{
		Resolver:   resolver.Addr,
		Candidates: candidates,
	})
	it.Engine.Env.InsertionTTL = uint8(hops - 1)

	ok := 0
	var lastAnswer packet.Addr
	gotAnswer := false
	cli.ListenUDP(5353, func(src packet.Addr, sp uint16, payload []byte) {
		m, err := dnsmsg.Decode(payload)
		if err == nil && len(m.Answers) > 0 && !gotAnswer {
			gotAnswer = true
			lastAnswer = m.Answers[0].Addr
		}
	})
	for i := 0; i < queries; i++ {
		gotAnswer = false
		q, err := dnsmsg.NewQuery(uint16(i+1), CensoredDomain).Encode()
		if err != nil {
			continue
		}
		cli.SendUDP(5353, resolver.Addr, 53, q)
		sim.RunFor(5 * time.Second)
		if gotAnswer && lastAnswer == realAddr {
			ok++
		}
		// Wait out any blocklist the failed attempt triggered.
		if !gotAnswer || lastAnswer != realAddr {
			sim.RunFor(95 * time.Second)
		}
	}
	return ok
}

// FormatTable6 renders the rows in the paper's layout.
func FormatTable6(rows []Table6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-16s %-16s %-8s\n", "DNS resolver", "IP", "except Tianjin", "All")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-12s %-16s %15.1f%% %6.1f%%\n", row.Resolver, row.IP, row.ExceptTianjin, row.All)
	}
	return b.String()
}
