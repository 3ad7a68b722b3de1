// Package experiment reproduces the paper's measurement campaigns over
// the simulated substrate: the vantage-point and website populations of
// §3.3, the per-trial topology construction, the Success/Failure-1/
// Failure-2 classification of §3.4, and runners that regenerate every
// table and figure of the evaluation.
package experiment

import (
	"fmt"
	"math/rand"

	"intango/internal/censor"
	"intango/internal/gfw"
	"intango/internal/middlebox"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Keyword is the sensitive keyword the paper probes with (§3.3).
const Keyword = "ultrasurf"

// VantagePoint is one of the measurement clients of §3.3.
type VantagePoint struct {
	Name    string
	City    string
	ISP     string
	Profile middlebox.ProfileName
	Addr    packet.Addr
	// TorFiltered: Tor-filtering GFW devices sit on this VP's paths
	// (§7.3 found them absent from Northern China).
	TorFiltered bool
	// ResolverPathFirewall models the Tianjin anomaly of §7.2: paths
	// from that VP to the public DNS resolvers traverse a stateful
	// firewall that honors the RST insertion packets and then blocks
	// the flow.
	ResolverPathFirewall bool
}

// VantagePoints returns the paper's 11 clients: 6 on Aliyun, 3 on
// QCloud, 2 on China Unicom home networks, across 9 cities (§3.3).
func VantagePoints() []VantagePoint {
	mk := func(i int, city, isp string, prof middlebox.ProfileName) VantagePoint {
		return VantagePoint{
			Name:    fmt.Sprintf("vp%02d-%s", i, city),
			City:    city,
			ISP:     isp,
			Profile: prof,
			Addr:    packet.AddrFrom4(10, 0, byte(i), 1),
		}
	}
	vps := []VantagePoint{
		mk(1, "beijing", "aliyun", middlebox.ProfileAliyun),
		mk(2, "shanghai", "aliyun", middlebox.ProfileAliyun),
		mk(3, "hangzhou", "aliyun", middlebox.ProfileAliyun),
		mk(4, "qingdao", "aliyun", middlebox.ProfileAliyun),
		mk(5, "zhangjiakou", "aliyun", middlebox.ProfileAliyun),
		mk(6, "beijing2", "aliyun", middlebox.ProfileAliyun),
		mk(7, "guangzhou", "qcloud", middlebox.ProfileQCloud),
		mk(8, "shenzhen", "qcloud", middlebox.ProfileQCloud),
		mk(9, "shanghai2", "qcloud", middlebox.ProfileQCloud),
		mk(10, "shijiazhuang", "unicom", middlebox.ProfileUnicomSJZ),
		mk(11, "tianjin", "unicom", middlebox.ProfileUnicomTJ),
	}
	// §7.3: four vantage points in three Northern-China cities
	// (Beijing, Zhangjiakou, Qingdao) see no Tor filtering.
	unfilteredCities := map[string]bool{"beijing": true, "beijing2": true, "zhangjiakou": true, "qingdao": true}
	for i := range vps {
		vps[i].TorFiltered = !unfilteredCities[vps[i].City]
	}
	// §7.2: the Tianjin vantage point has low TCP-DNS success.
	vps[10].ResolverPathFirewall = true
	return vps
}

// DeviceMix describes which GFW generations sit on a path.
type DeviceMix int

// Path device mixes. The evolved rollout was nearly complete by the
// measurement period (old-only paths are what keeps the Table 1
// legacy strategies at single-digit success).
const (
	EvolvedOnly DeviceMix = iota
	OldOnly
	BothModels
)

// Server is one website stand-in of §3.3 (77 ASes, one IP each).
type Server struct {
	Name  string
	Addr  packet.Addr
	Stack tcpstack.Profile
	// Hops is the router hop count client→server; GFWHop is the tap
	// position.
	Hops   int
	GFWHop int
	// Mix selects the GFW generations on the path.
	Mix DeviceMix
	// LossRate applies to the client-side access link.
	LossRate float64
	// ServerSideFirewall places a stateful firewall past the GFW.
	ServerSideFirewall bool
	// RouteDynamicsProb is the per-trial chance the route shifted
	// since the hop count was measured (§3.4 network dynamics).
	RouteDynamicsProb float64
}

// Calibration gathers the free parameters of the reproduction; each is
// tied to the paper observation that motivates it (see DESIGN.md).
type Calibration struct {
	// DetectionMissProb: the persistent no-strategy success (§3.4,
	// 2.8%).
	DetectionMissProb float64
	// OldOnlyShare / BothShare: remaining old-model deployments; the
	// 6-7% success of TCB-creation (Table 1) bounds old-only paths.
	OldOnlyShare, BothShare float64
	// ResyncOnRSTProb: the ~25% of RSTs that do not tear down
	// (Table 1 teardown Failure-2; §4 Hypothesized Behavior 3).
	ResyncOnRSTProb float64
	// SegmentLastWinsProb: share of devices still preferring the later
	// overlapping segment copy (Table 1 out-of-order TCP ~31% success).
	SegmentLastWinsProb float64
	// OldServerShare: Linux ≤ 2.6 servers (§5.3 cross-validation
	// failures).
	OldServerShare float64
	// LossRate: baseline packet loss motivating insertion repeats.
	LossRate float64
	// RouteDynamicsProb: routes shifting under the measured hop count.
	RouteDynamicsProb float64
	// ServerSideFirewallShare: paths with interfering server-side
	// middleboxes (§3.4 "Failures 1").
	ServerSideFirewallShare float64
}

// DefaultCalibration returns the values used for the headline tables.
func DefaultCalibration() Calibration {
	return Calibration{
		DetectionMissProb:       0.028,
		OldOnlyShare:            0.055,
		BothShare:               0.20,
		ResyncOnRSTProb:         0.22,
		SegmentLastWinsProb:     0.32,
		OldServerShare:          0.07,
		LossRate:                0.006,
		RouteDynamicsProb:       0.035,
		ServerSideFirewallShare: 0.02,
	}
}

// Servers deterministically samples n website stand-ins from the
// calibrated distributions.
func Servers(n int, cal Calibration, seed int64) []Server {
	rng := rand.New(rand.NewSource(seed))
	stacks := []func() tcpstack.Profile{
		tcpstack.Linux44, tcpstack.Linux40, tcpstack.Linux314,
	}
	oldStacks := []func() tcpstack.Profile{tcpstack.Linux2634, tcpstack.Linux2437}
	out := make([]Server, 0, n)
	for i := 0; i < n; i++ {
		s := Server{
			Name: fmt.Sprintf("site%03d.example", i),
			Addr: packet.AddrFrom4(203, 0, byte(113+i/200), byte(i%200+10)),
		}
		if rng.Float64() < cal.OldServerShare {
			s.Stack = oldStacks[rng.Intn(len(oldStacks))]()
		} else {
			s.Stack = stacks[rng.Intn(len(stacks))]()
		}
		s.Hops = 9 + rng.Intn(7) // 9..15 router hops
		// Inside China the GFW sits at the border, early on the path.
		s.GFWHop = 2 + rng.Intn(3)
		switch v := rng.Float64(); {
		case v < cal.OldOnlyShare:
			s.Mix = OldOnly
		case v < cal.OldOnlyShare+cal.BothShare:
			s.Mix = BothModels
		default:
			s.Mix = EvolvedOnly
		}
		s.LossRate = cal.LossRate * (0.5 + rng.Float64())
		s.ServerSideFirewall = rng.Float64() < cal.ServerSideFirewallShare
		s.RouteDynamicsProb = cal.RouteDynamicsProb
		out = append(out, s)
	}
	return out
}

// OutsideServers samples the §7 outside-China targets: 33 Chinese
// websites reached from abroad, where the GFW devices sit within a few
// hops of the server — sometimes co-located — making TTL-limited
// insertion much harder (§7.1).
func OutsideServers(n int, cal Calibration, seed int64) []Server {
	servers := Servers(n, cal, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	for i := range servers {
		servers[i].Name = fmt.Sprintf("cn-site%03d.example", i)
		// GFW within 0-3 hops of the server.
		servers[i].GFWHop = servers[i].Hops - 1 - rng.Intn(4)
		if servers[i].GFWHop < 1 {
			servers[i].GFWHop = 1
		}
	}
	return servers
}

// controlledServers samples n servers on clean controlled paths:
// evolved censor only, no server-side firewall, no route dynamics, no
// access loss — so differences between cells are attributable to the
// strategy, the censor or the link alone.
func controlledServers(r *Runner, n int) []Server {
	servers := Servers(n, r.Cal, r.Seed)
	for i := range servers {
		servers[i].Mix = EvolvedOnly
		servers[i].ServerSideFirewall = false
		servers[i].RouteDynamicsProb = 0
		servers[i].LossRate = 0
	}
	return servers
}

// gfwConfig builds the device configuration for a path: the compiled
// censor-spec lowering of the model's registry entry (gfw2017/gfw2013),
// with the calibration's device probabilities layered on top — Cal is
// the experiment-level override knob sensitivity sweeps turn, so it
// wins over the spec's measured defaults here.
func gfwConfig(model gfw.Model, cal Calibration) gfw.Config {
	name := censor.GFW2017
	if model == gfw.ModelKhattak2013 {
		name = censor.GFW2013
	}
	cfg, ok := censor.MustResolve(name).GFWConfig()
	if !ok {
		panic("experiment: registry censor " + name + " is not an engine spec")
	}
	cfg.DetectionMissProb = cal.DetectionMissProb
	cfg.ResyncOnRSTProb = cal.ResyncOnRSTProb
	cfg.SegmentLastWinsProb = cal.SegmentLastWinsProb
	return cfg
}
