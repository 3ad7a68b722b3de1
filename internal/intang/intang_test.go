package intang

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/core"
	"intango/internal/dnsmsg"
	"intango/internal/gfw"
	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

const keyword = "ultrasurf"

type rig struct {
	sim  *netem.Simulator
	path *netem.Fabric
	dev  *gfw.Device
	cli  *tcpstack.Stack
	srv  *tcpstack.Stack
	it   *INTANG
}

func newRig(t *testing.T, cfg gfw.Config, opts Options) *rig {
	t.Helper()
	r := &rig{sim: netem.NewSimulator(31)}
	if cfg.Keywords == nil {
		cfg.Keywords = []string{keyword}
	}
	if cfg.DetectionMissProb == 0 {
		cfg.DetectionMissProb = -1
	}
	r.dev = gfw.NewDevice("gfw", cfg, r.sim.Rand())
	link := netem.Link{Latency: time.Millisecond}
	r.path = netem.NewChain(r.sim, 6, link, link)
	r.path.Node(3).Taps = []netem.Processor{r.dev} // the third router
	r.cli = tcpstack.NewStack(cliAddr, tcpstack.Linux44(), r.sim)
	r.srv = tcpstack.NewStack(srvAddr, tcpstack.Linux44(), r.sim)
	r.srv.AttachServer(r.path)
	appsim.ServeHTTP(r.srv, 80)
	r.it = New(r.sim, r.path, r.cli, opts)
	r.it.Engine.Env.InsertionTTL = 3
	return r
}

// fetch runs one sensitive GET and reports whether it succeeded.
func (r *rig) fetch(t *testing.T) bool {
	t.Helper()
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(200 * time.Millisecond)
	if c.State() == tcpstack.Established {
		c.Write(appsim.HTTPRequest("example.com", "/?q="+keyword))
	}
	r.sim.RunFor(5 * time.Second)
	return bytes.Contains(c.Received(), []byte("200 OK")) && !c.GotRST
}

func TestINTANGEvadesWithDefaults(t *testing.T) {
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017}, Options{})
	if !r.fetch(t) {
		t.Fatal("INTANG default candidate failed on a clean path")
	}
	if r.it.Stats["success"] == 0 {
		t.Fatal("success feedback not recorded")
	}
	// The winning strategy is cached for the server.
	if got := r.it.ChooseStrategy(srvAddr); got != r.it.Opts.Candidates[0] {
		t.Fatalf("cached strategy = %q", got)
	}
}

func TestINTANGRotatesOnFailure(t *testing.T) {
	// Force the first candidate to be useless ("none"): INTANG must
	// fail once, rotate, then succeed and cache the second candidate.
	opts := Options{Candidates: []string{"none", "improved-teardown"}}
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017}, opts)
	if r.fetch(t) {
		t.Fatal("no-strategy trial should be censored")
	}
	if r.it.Stats["failure"] == 0 {
		t.Fatal("failure feedback not recorded")
	}
	// The 90-second pair block from the failed trial must lapse first.
	r.sim.RunFor(2 * time.Minute)
	if !r.fetch(t) {
		t.Fatal("second candidate should succeed")
	}
	if got := r.it.ChooseStrategy(srvAddr); got != "improved-teardown" {
		t.Fatalf("cached strategy = %q", got)
	}
}

func TestINTANGCacheExpiry(t *testing.T) {
	opts := Options{CacheTTL: 10 * time.Second}
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017}, opts)
	if !r.fetch(t) {
		t.Fatal("fetch failed")
	}
	first := r.it.ChooseStrategy(srvAddr)
	r.sim.RunFor(11 * time.Second)
	// Cache expired: back to rotation (same candidate 0 here, but via
	// the rotation path — observable through the store).
	if _, ok := r.it.Store.Get("strategy:" + srvAddr.String()); ok {
		t.Fatal("cache entry should have expired")
	}
	_ = first
}

func TestHopCountMeasurement(t *testing.T) {
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017}, Options{})
	r.it.MeasureHops(srvAddr, 80)
	r.sim.RunFor(5 * time.Second)
	hops, ok := r.it.HopsTo(srvAddr)
	if !ok {
		t.Fatal("no hop measurement")
	}
	// 6 routers + delivery: the first TTL that reaches the server is 7.
	if hops != 7 {
		t.Fatalf("hops = %d, want 7", hops)
	}
	if got := r.it.Engine.Env.InsertionTTL; got != 5 {
		t.Fatalf("insertion TTL = %d, want hops-δ = 5", got)
	}
	// The derived TTL works end-to-end.
	if !r.fetch(t) {
		t.Fatal("fetch with measured TTL failed")
	}
}

func TestDNSForwarderEvadesPoisoning(t *testing.T) {
	want := packet.AddrFrom4(44, 44, 44, 44)
	cfg := gfw.Config{
		Model:           gfw.ModelEvolved2017,
		PoisonedDomains: []string{"dropbox.com"},
	}
	r := newRig(t, cfg, Options{Resolver: srvAddr})
	appsim.ServeDNSUDP(r.srv, appsim.Zone{"www.dropbox.com": want})
	appsim.ServeDNSTCP(r.srv, appsim.Zone{"www.dropbox.com": want})

	var got []packet.Addr
	r.cli.ListenUDP(5353, func(src packet.Addr, sp uint16, payload []byte) {
		m, err := dnsmsg.Decode(payload)
		if err == nil && len(m.Answers) > 0 {
			got = append(got, m.Answers[0].Addr)
		}
	})
	q, _ := dnsmsg.NewQuery(77, "www.dropbox.com").Encode()
	r.cli.SendUDP(5353, srvAddr, 53, q)
	r.sim.RunFor(10 * time.Second)
	if len(got) != 1 {
		t.Fatalf("answers = %v, want exactly one (no poisoned race)", got)
	}
	if got[0] != want {
		t.Fatalf("answer = %v, want %v", got[0], want)
	}
	if got[0] == gfw.PoisonAddr {
		t.Fatal("received the poisoned answer")
	}
	if r.it.Stats["dns-forwarded"] != 1 || r.it.Stats["dns-answered"] != 1 {
		t.Fatalf("forwarder stats = %v", r.it.Stats)
	}
}

func TestDNSWithoutForwarderIsPoisoned(t *testing.T) {
	// Control: the same query over plain UDP races the poisoner and
	// loses.
	cfg := gfw.Config{
		Model:           gfw.ModelEvolved2017,
		PoisonedDomains: []string{"dropbox.com"},
	}
	r := newRig(t, cfg, Options{}) // no resolver: forwarder disabled
	appsim.ServeDNSUDP(r.srv, appsim.Zone{})
	var first packet.Addr
	gotAny := false
	r.cli.ListenUDP(5353, func(src packet.Addr, sp uint16, payload []byte) {
		m, err := dnsmsg.Decode(payload)
		if err == nil && len(m.Answers) > 0 && !gotAny {
			gotAny = true
			first = m.Answers[0].Addr
		}
	})
	q, _ := dnsmsg.NewQuery(78, "www.dropbox.com").Encode()
	r.cli.SendUDP(5353, srvAddr, 53, q)
	r.sim.RunFor(5 * time.Second)
	if !gotAny || first != gfw.PoisonAddr {
		t.Fatalf("first answer = %v gotAny=%v, want poison", first, gotAny)
	}
}

func TestDescribeMentionsComponents(t *testing.T) {
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017}, Options{})
	d := r.it.Describe()
	for _, want := range []string{"main thread", "caching thread", "DNS thread"} {
		if !bytes.Contains([]byte(d), []byte(want)) {
			t.Fatalf("Describe missing %q:\n%s", want, d)
		}
	}
}

func TestAdaptiveDeltaConvergesPastServerSideFirewall(t *testing.T) {
	// A server-side stateful firewall sits one router short of where
	// the default δ=2 insertion TTL dies: the first protected attempt
	// times out (the RST insertion kills the firewall's state), INTANG
	// raises δ, and the next attempt clears it.
	// The TTL-only teardown: improved-teardown's MD5 RST would reach
	// the firewall at any TTL, so no δ could save it.
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017},
		Options{Candidates: []string{"teardown-rst/ttl"}, AdaptiveDelta: true})
	// 6 hops; firewall at hop index 4 (router #5). Measured hops = 7,
	// δ=2 → TTL 5: dies AT router 5 after traversing routers 1-4...
	// the firewall at router #5 is never reached. Move it to router #4
	// (hop index 3): TTL 5 passes router 4 — state killed. δ=3 → TTL 4
	// dies at router 4 before its processors run.
	fw := middlebox.NewStatefulFirewall("ss-fw", false)
	r.path.Node(4).Processors = append(r.path.Node(4).Processors, fw)
	r.it.MeasureHops(srvAddr, 80)
	r.sim.RunFor(2 * time.Second)

	first := r.fetch(t)
	r.sim.RunFor(100 * time.Second) // let the response timeout fire
	if !first && r.it.Stats["timeout"] == 0 {
		t.Fatal("no timeout booked for the overshooting insertion")
	}
	ok := false
	for i := 0; i < 4 && !ok; i++ {
		ok = r.fetch(t)
		if !ok {
			r.sim.RunFor(100 * time.Second)
		}
	}
	if !ok {
		t.Fatalf("δ never converged: delta=%d stats=%v", r.it.DeltaFor(srvAddr), r.it.Stats)
	}
	if r.it.DeltaFor(srvAddr) <= 2 {
		t.Fatalf("δ = %d, want > 2 after timeouts", r.it.DeltaFor(srvAddr))
	}
}

func TestAdaptiveDeltaLowersWhenRotationExhausts(t *testing.T) {
	// GFW co-located with the server (outside-China shape): δ=2 makes
	// every TTL insertion die before the censor, so every candidate
	// fails with resets; after a full rotation INTANG lowers δ.
	// TTL-dependent candidates only: the MD5-backed strategies would
	// sail past the co-located censor regardless of δ.
	r := newRigGFWNearServer(t, Options{
		Candidates:    []string{"teardown-rst/ttl", "creation-resync-desync"},
		AdaptiveDelta: true,
	})
	r.it.MeasureHops(srvAddr, 80)
	r.sim.RunFor(2 * time.Second)
	for i := 0; i < 3; i++ {
		if r.fetch(t) {
			break
		}
		r.sim.RunFor(100 * time.Second)
	}
	if r.it.Stats["delta-lower"] == 0 {
		t.Fatalf("δ never lowered: delta=%d stats=%v", r.it.DeltaFor(srvAddr), r.it.Stats)
	}
	if r.it.DeltaFor(srvAddr) >= 2 {
		t.Fatalf("δ = %d, want < 2", r.it.DeltaFor(srvAddr))
	}
}

// newRigGFWNearServer builds a rig with the tap at the second-to-last
// hop.
func newRigGFWNearServer(t *testing.T, opts Options) *rig {
	t.Helper()
	r := &rig{sim: netem.NewSimulator(33)}
	cfg := gfw.Config{Model: gfw.ModelEvolved2017, Keywords: []string{keyword}, DetectionMissProb: -1}
	r.dev = gfw.NewDevice("gfw", cfg, r.sim.Rand())
	link := netem.Link{Latency: time.Millisecond}
	r.path = netem.NewChain(r.sim, 6, link, link)
	r.path.Node(6).Taps = []netem.Processor{r.dev} // the sixth (last) router
	r.cli = tcpstack.NewStack(cliAddr, tcpstack.Linux44(), r.sim)
	r.srv = tcpstack.NewStack(srvAddr, tcpstack.Linux44(), r.sim)
	r.srv.AttachServer(r.path)
	appsim.ServeHTTP(r.srv, 80)
	r.it = New(r.sim, r.path, r.cli, opts)
	return r
}

func TestProbePoisonedDomains(t *testing.T) {
	cfg := gfw.Config{
		Model:           gfw.ModelEvolved2017,
		PoisonedDomains: []string{"dropbox.com", "facebook.com"},
	}
	r := newRig(t, cfg, Options{})
	appsim.ServeDNSUDP(r.srv, appsim.Zone{})
	domains := []string{
		"www.dropbox.com", "www.example.com", "www.facebook.com", "news.ycombinator.com",
	}
	results := ProbePoisonedDomains(r.sim, r.cli, srvAddr, domains)
	want := map[string]bool{
		"www.dropbox.com":      true,
		"www.example.com":      false,
		"www.facebook.com":     true,
		"news.ycombinator.com": false,
	}
	for _, res := range results {
		if res.Poisoned != want[res.Domain] {
			t.Errorf("%s: poisoned=%v answers=%v", res.Domain, res.Poisoned, res.Answers)
		}
	}
	list := PoisonedList(results)
	if len(list) != 2 || list[0] != "www.dropbox.com" || list[1] != "www.facebook.com" {
		t.Fatalf("poisoned list = %v", list)
	}
}

// TestNewRefusesUnresolvableCandidate: a candidate that neither names a
// registered strategy nor parses as spec text is a programming error,
// so New panics with the resolver's message instead of running flows
// with no strategy under the misspelt name.
func TestNewRefusesUnresolvableCandidate(t *testing.T) {
	_, _, want := core.ResolveStrategy("improved-teardwn")
	if want == nil {
		t.Fatal("the misspelt name resolved")
	}
	defer func() {
		got := recover()
		if got == nil {
			t.Fatal("New accepted an unresolvable candidate")
		}
		if msg := fmt.Sprint(got); !strings.Contains(msg, want.Error()) {
			t.Fatalf("panic %q does not carry the resolver's message %q", msg, want)
		}
	}()
	sim := netem.NewSimulator(1)
	link := netem.Link{Latency: time.Millisecond}
	path := netem.NewChain(sim, 2, link, link)
	New(sim, path, tcpstack.NewStack(cliAddr, tcpstack.Linux44(), sim),
		Options{Candidates: []string{"improved-teardown", "improved-teardwn"}})
}

// TestCachedSpecThatNoLongerResolves: a cached record that is not a
// strategy (the store outlives configurations) is ignored, and the
// server gets its rotation candidate rather than no strategy.
func TestCachedSpecThatNoLongerResolves(t *testing.T) {
	r := newRig(t, gfw.Config{Model: gfw.ModelEvolved2017}, Options{})
	r.it.Store.Set(cacheKey(srvAddr), "improved-teardwn", time.Minute)
	if got := r.it.ChooseStrategy(srvAddr); got != "teardown-reversal" {
		t.Fatalf("strategy = %q, want the first rotation candidate", got)
	}
}
