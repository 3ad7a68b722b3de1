package experiment

import (
	"slices"
	"strings"
	"testing"

	"intango/internal/censor"
	"intango/internal/core"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/topo"
)

// TestDerivedProgramsStayOnRunner runs a quick Table 1 campaign on
// runners of three seeds — three server populations, whose sampled
// loss rates key topology shapes of their own — and requires each
// runner's derived programs to stay with it: the package-level cache,
// which holds parsed override specs only, does not grow, and a runner
// caches only shapes of its own servers.
func TestDerivedProgramsStayOnRunner(t *testing.T) {
	topoMu.RLock()
	before := len(topoOverride)
	topoMu.RUnlock()
	sc := Scale{VPs: 2, Servers: 2, Trials: 1}
	for _, seed := range []int64{1, 2, 3} {
		r := NewRunner(seed)
		RunTable1Parallel(r, sc)
		servers := Servers(sc.Servers, r.Cal, seed)
		if len(r.programs) == 0 {
			t.Fatalf("seed %d: the campaign cached no programs on its runner", seed)
		}
		for k := range r.programs {
			if !slices.ContainsFunc(servers, func(s Server) bool { return s.LossRate == k.loss }) {
				t.Fatalf("seed %d: runner caches shape %+v, whose loss rate none of its servers has", seed, k)
			}
		}
	}
	topoMu.RLock()
	after := len(topoOverride)
	topoMu.RUnlock()
	if after != before {
		t.Fatalf("package-level program cache grew from %d to %d entries", before, after)
	}
}

// TestRouteDynamicsHopUnderflow is the regression test for the ±2 hop
// jitter on short measured paths: at srv.Hops = 2 the −2 draw used to
// produce a zero-hop path and panic indexing the first hop. The clamp
// floors the path at one router.
func TestRouteDynamicsHopUnderflow(t *testing.T) {
	vp := VantagePoints()[0]
	r := NewRunner(11)
	srv := Servers(1, r.Cal, 11)[0]
	srv.Hops = 2
	srv.GFWHop = 2 // clamps onto the shortened path
	srv.RouteDynamicsProb = 1.0
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	sawShift := false
	for trial := 0; trial < 24; trial++ {
		out := r.RunOne(vp, srv, f, true, trial)
		// Same seed, same trial → same build; the clamp must be stable.
		if again := r.RunOne(vp, srv, f, true, trial); again != out {
			t.Fatalf("trial %d not deterministic: %v then %v", trial, out, again)
		}
		sawShift = true
	}
	if !sawShift {
		t.Fatal("no trials ran")
	}
	// The clamped single-hop shape itself: hops 2-2=0 → 1.
	key := shapeKey(vp, srv, 1)
	if key.gfwHop != 0 {
		t.Errorf("gfwHop on one-hop path = %d, want 0", key.gfwHop)
	}
	if _, err := topo.NewProgram(derivedSpec(key)); err != nil {
		t.Fatalf("one-hop derived spec invalid: %v", err)
	}
}

// TestPoolStatsBothArms: PoolStats must be an explicit zero snapshot
// when pooling is disabled or untouched, and live counters otherwise.
func TestPoolStatsBothArms(t *testing.T) {
	vp := VantagePoints()[0]
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")

	fresh := NewRunner(5)
	if got := fresh.PoolStats(); got != (packet.PoolStats{}) {
		t.Errorf("PoolStats before any trial = %+v, want zero", got)
	}

	noPool := NewRunner(5)
	noPool.NoPool = true
	srv := Servers(1, noPool.Cal, 5)[0]
	noPool.RunOne(vp, srv, f, true, 0)
	if got := noPool.PoolStats(); got != (packet.PoolStats{}) {
		t.Errorf("PoolStats with NoPool = %+v, want zero", got)
	}

	pooled := NewRunner(5)
	pooled.RunOne(vp, srv, f, true, 0)
	got := pooled.PoolStats()
	if got.Gets == 0 {
		t.Errorf("PoolStats after pooled trial = %+v, want nonzero Gets", got)
	}
}

// TestDerivedTopoMatchesHandBuilt pins the derived spec's canonical
// text for a representative pair, and checks the compiled fabric keeps
// the historical labeling: endpoints client and server, routers r.
func TestDerivedTopoMatchesHandBuilt(t *testing.T) {
	r := NewRunner(42)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 42)[0]
	spec := r.TopoSpec(vp, srv)
	text := spec.String()
	for _, want := range []string{
		"node:c(client)",
		"node:r0(router,label=r,proc=mbox:aliyun)",
		"node:s(server)",
		"tap=gfw-",
		"link:c>r0(lat=1ms,loss=",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("derived spec missing %q:\n%s", want, text)
		}
	}
	// Canonical round trip holds for derived specs too.
	if reparsed, err := topo.ParseTopo(text); err != nil || reparsed.String() != text {
		t.Errorf("derived spec does not round-trip (%v):\n%s", err, text)
	}
	rg := r.build(vp, srv, r.topoOverride(), r.Censor, 1, r.newArena())
	nodes := strings.Split(rg.net.Describe(), " — ")
	if len(nodes) < 3 || nodes[0] != "client" || nodes[len(nodes)-1] != "server" {
		t.Fatalf("derived fabric drawn as %q", nodes)
	}
	for i, n := range nodes[1 : len(nodes)-1] {
		if n != "r" && !strings.HasPrefix(n, "r[") {
			t.Fatalf("router %d drawn as %q, want r (label preserved)", i, n)
		}
	}
	if len(rg.devices) == 0 {
		t.Fatal("no GFW devices bound")
	}
}

// TestGraphTopoCampaign runs a trial campaign over the ECMP demo graph
// (two parallel censor devices, asymmetric reverse route) end to end
// through the standard runner: builds must bind both devices, flows
// must split across both branches, and outcomes must be deterministic.
func TestGraphTopoCampaign(t *testing.T) {
	vp := VantagePoints()[0]
	r := NewRunner(9)
	r.Topo = GraphDemoTopo
	srv := Servers(1, r.Cal, 9)[0]
	rg := r.build(vp, srv, r.topoOverride(), r.Censor, 1, r.newArena())
	if len(rg.devices) != 2 {
		t.Fatalf("bound %d devices, want 2 parallel devices", len(rg.devices))
	}
	cli, sv := vp.Addr, srv.Addr
	sawB1, sawB2 := false, false
	for sport := uint16(32768); sport < 32768+64; sport++ {
		pkt := packet.NewTCP(cli, sport, sv, 80, packet.FlagSYN, 1, 0, nil)
		route := strings.Join(rg.net.Route(netem.ToServer, pkt), ">")
		if strings.Contains(route, ">b1>") {
			sawB1 = true
		}
		if strings.Contains(route, ">b2>") {
			sawB2 = true
		}
	}
	if !sawB1 || !sawB2 {
		t.Errorf("ECMP never split flows across branches: b1=%v b2=%v", sawB1, sawB2)
	}
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	for trial := 0; trial < 4; trial++ {
		out := r.RunOne(vp, srv, f, true, trial)
		if again := r.RunOne(vp, srv, f, true, trial); again != out {
			t.Fatalf("graph trial %d not deterministic: %v then %v", trial, out, again)
		}
	}
}

// TestRunnerCensorAcceptsEveryRegistered runs one trial per (VP,
// server) pair with each registered censor as Runner.Censor, filter-
// only chains included, over derived paths with one GFW slot, with
// both models' slots and with a server-side firewall. A chain has no
// device to inject, so none of its trials is a Failure 2.
func TestRunnerCensorAcceptsEveryRegistered(t *testing.T) {
	r := NewRunner(42)
	vps := VantagePoints()[:2]
	servers := Servers(3, r.Cal, 42)
	servers[0].Mix = EvolvedOnly
	servers[1].Mix = BothModels
	servers[2].ServerSideFirewall = true
	for _, e := range censor.Registry() {
		r.Censor = e.Name
		chain := censor.MustResolve(e.Name).Kind() == censor.KindChain
		for _, vp := range vps {
			for _, srv := range servers {
				if out := r.RunOne(vp, srv, nil, true, 0); chain && out == Failure2 {
					t.Errorf("%s: %s ~ %s: failure-2 with no device to inject", e.Name, vp.Name, srv.Name)
				}
			}
		}
	}
}
