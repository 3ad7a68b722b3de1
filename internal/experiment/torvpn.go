package experiment

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"intango/internal/appsim"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// TorResult is one vantage point's §7.3 outcome.
type TorResult struct {
	VP           string
	FilteredPath bool
	// PlainWorks: a bare Tor connection survives the observation
	// period (unfiltered Northern-China paths).
	PlainWorks bool
	// IPBlocked: the bridge IP was null-routed after active probing.
	IPBlocked bool
	// INTANGSuccess is the success rate of INTANG-protected Tor
	// connections (the paper measured 100% over five attempts each).
	INTANGSuccess float64
}

// torRig builds a client—GFW—bridge path for a vantage point.
func (r *Runner) torRig(vp VantagePoint, bridge packet.Addr, seedExtra int64) (*netem.Simulator, *netem.Fabric, *gfw.Device) {
	sim := netem.NewSimulator(r.pairSeed(vp, Server{Name: bridge.String()}) ^ seedExtra)
	link := netem.Link{Latency: time.Millisecond}
	path := netem.NewChain(sim, 11, link, link)
	if chain := middlebox.BuildProfile(vp.Profile, sim.Rand()); chain != nil {
		path.Node(1).Processors = chain
	}
	cfg := gfwConfig(gfw.ModelEvolved2017, r.Cal)
	cfg.TorFiltering = vp.TorFiltered
	cfg.ActiveProbeDelay = 15 * time.Second
	dev := gfw.NewDevice("gfw", cfg, sim.Rand())
	path.Node(4).Taps = []netem.Processor{dev} // the fourth router
	path.Node(4).Processors = []netem.Processor{dev.IPFilter()}

	srv := tcpstack.NewStack(bridge, tcpstack.Linux44(), sim)
	srv.AttachServer(path)
	appsim.ServeTorBridge(srv, 9001)
	return sim, path, dev
}

// torSession runs one Tor connection with periodic traffic for the
// given duration and reports whether it stayed usable.
func torSession(sim *netem.Simulator, cli *tcpstack.Stack, bridge packet.Addr, duration time.Duration) bool {
	conn := cli.Connect(bridge, 9001)
	sim.RunFor(500 * time.Millisecond)
	if conn.State() != tcpstack.Established {
		return false
	}
	conn.Write(appsim.TorClientHello())
	sim.RunFor(2 * time.Second)
	if conn.GotRST || len(conn.Received()) == 0 {
		return false
	}
	// Periodic, manually generated traffic (§7.3).
	steps := int(duration / (30 * time.Minute))
	if steps < 1 {
		steps = 1
	}
	before := 0
	for i := 0; i < steps; i++ {
		before = len(conn.Received())
		conn.Write([]byte("relay-cell-probe"))
		sim.RunFor(30 * time.Minute)
		if conn.GotRST || len(conn.Received()) == before {
			return false
		}
	}
	return !conn.GotRST && bytes.Contains(conn.Received(), []byte("TORCELL"))
}

// RunTor reproduces §7.3: plain Tor connections from all vantage
// points (working on unfiltered Northern-China paths, probed and
// IP-blocked elsewhere), then INTANG-protected connections on the
// filtered paths.
func RunTor(r *Runner, attempts int) []TorResult {
	bridge := packet.AddrFrom4(52, 3, 17, 99) // EC2-hosted hidden bridge
	var results []TorResult
	for _, vp := range VantagePoints() {
		res := TorResult{VP: vp.Name, FilteredPath: vp.TorFiltered}

		// Plain Tor, observed over two days of periodic traffic.
		sim, path, dev := r.torRig(vp, bridge, 1)
		cli := tcpstack.NewStack(vp.Addr, tcpstack.Linux44(), sim)
		cli.AttachClient(path)
		res.PlainWorks = torSession(sim, cli, bridge, 48*time.Hour)
		// Give the active prober time to confirm and null-route.
		sim.RunFor(time.Minute)
		res.IPBlocked = dev.IsIPBlocked(bridge)

		// INTANG-protected attempts on the same kind of path.
		okCount := 0
		for i := 0; i < attempts; i++ {
			sim2, path2, _ := r.torRig(vp, bridge, int64(100+i))
			cli2 := tcpstack.NewStack(vp.Addr, tcpstack.Linux44(), sim2)
			it := intang.New(sim2, path2, cli2, intang.Options{Candidates: []string{"improved-teardown"}})
			it.Engine.Env.InsertionTTL = 10
			if torSession(sim2, cli2, bridge, 9*time.Hour) {
				okCount++
			}
		}
		res.INTANGSuccess = 100 * float64(okCount) / float64(attempts)
		results = append(results, res)
	}
	return results
}

// FormatTor renders the Tor results.
func FormatTor(results []TorResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-10s %-12s %-10s %-14s\n", "Vantage point", "Filtered", "Plain Tor", "IP block", "INTANG succ.")
	for _, res := range results {
		plain := "blocked"
		if res.PlainWorks {
			plain = "works"
		}
		blocked := "no"
		if res.IPBlocked {
			blocked = "yes"
		}
		fmt.Fprintf(&b, "%-18s %-10v %-12s %-10s %12.0f%%\n", res.VP, res.FilteredPath, plain, blocked, res.INTANGSuccess)
	}
	return b.String()
}

// VPNResult captures the §7.3 OpenVPN observations.
type VPNResult struct {
	Era            string
	DPIFiltering   bool
	PlainSurvives  bool
	INTANGSurvives bool
}

// RunVPN reproduces the two OpenVPN measurements: November 2016 (DPI
// resets active; INTANG rescues the session) and the later re-run
// (filtering discontinued; both survive).
func RunVPN(r *Runner) []VPNResult {
	run := func(era string, filtering bool) VPNResult {
		trial := func(protected bool) bool {
			sim := netem.NewSimulator(2016)
			path := netem.NewChain(sim, 10, netem.Link{}, netem.Link{Latency: time.Millisecond})
			cfg := gfwConfig(gfw.ModelEvolved2017, r.Cal)
			cfg.VPNFiltering = filtering
			dev := gfw.NewDevice("gfw", cfg, sim.Rand())
			path.Node(4).Taps = []netem.Processor{dev} // the fourth router
			srv := tcpstack.NewStack(packet.AddrFrom4(203, 0, 113, 194), tcpstack.Linux44(), sim)
			srv.AttachServer(path)
			appsim.ServeOpenVPN(srv, 1194)
			cli := tcpstack.NewStack(packet.AddrFrom4(10, 9, 9, 9), tcpstack.Linux44(), sim)
			if protected {
				it := intang.New(sim, path, cli, intang.Options{Candidates: []string{"improved-teardown"}})
				it.Engine.Env.InsertionTTL = 9
			} else {
				cli.AttachClient(path)
			}
			conn := cli.Connect(packet.AddrFrom4(203, 0, 113, 194), 1194)
			sim.RunFor(500 * time.Millisecond)
			if conn.State() != tcpstack.Established {
				return false
			}
			conn.Write(appsim.OpenVPNClientReset())
			sim.RunFor(5 * time.Second)
			return !conn.GotRST && len(conn.Received()) > 2 && conn.Received()[2] == 0x40
		}
		return VPNResult{Era: era, DPIFiltering: filtering, PlainSurvives: trial(false), INTANGSurvives: trial(true)}
	}
	return []VPNResult{
		run("2016-11 (DPI resets active)", true),
		run("2017-04 (filtering discontinued)", false),
	}
}

// FormatVPN renders the VPN results.
func FormatVPN(results []VPNResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-34s %-10s %-12s %-12s\n", "Measurement", "DPI", "plain VPN", "with INTANG")
	for _, res := range results {
		fmt.Fprintf(&b, "%-34s %-10v %-12v %-12v\n", res.Era, res.DPIFiltering, res.PlainSurvives, res.INTANGSurvives)
	}
	return b.String()
}
