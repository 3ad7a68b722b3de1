package core

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

const keyword = "ultrasurf"

// Outcome mirrors the §3.4 classification.
type Outcome int

const (
	Success Outcome = iota
	Failure1
	Failure2
)

func (o Outcome) String() string {
	switch o {
	case Success:
		return "success"
	case Failure1:
		return "failure-1"
	default:
		return "failure-2"
	}
}

// trialRig is a client—GFW—server topology with a strategy engine.
type trialRig struct {
	sim    *netem.Simulator
	path   *netem.Fabric
	dev    *gfw.Device
	engine *Engine
	cli    *tcpstack.Stack
	srv    *tcpstack.Stack
}

func newTrialRig(t *testing.T, cfg gfw.Config, factory Factory, middle []netem.Processor) *trialRig {
	t.Helper()
	r := &trialRig{sim: netem.NewSimulator(23)}
	if cfg.Keywords == nil {
		cfg.Keywords = []string{keyword}
	}
	if cfg.DetectionMissProb == 0 {
		cfg.DetectionMissProb = -1 // deterministic tests never miss
	}
	r.dev = gfw.NewDevice("gfw", cfg, r.sim.Rand())
	link := netem.Link{Latency: time.Millisecond}
	r.path = netem.NewChain(r.sim, 6, link, link)
	// Client-side middleboxes at the first router; GFW tap at the third.
	r.path.Node(1).Processors = middle
	r.path.Node(3).Taps = []netem.Processor{r.dev}
	r.cli = tcpstack.NewStack(cliAddr, tcpstack.Linux44(), r.sim)
	r.srv = tcpstack.NewStack(srvAddr, tcpstack.Linux44(), r.sim)
	r.srv.AttachServer(r.path)
	r.srv.Listen(80, func(c *tcpstack.Conn) {
		c.OnData = func([]byte) {
			if bytes.Contains(c.Received(), []byte("\r\n\r\n")) {
				c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
			}
		}
	})
	// Insertion TTL 3: seen by the tap at hop 2, dead before the server.
	env := DefaultEnv(3, r.sim.Rand())
	r.engine = NewEngine(r.sim, r.path, r.cli, env)
	if factory != nil {
		r.engine.NewStrategy = func(packet.FourTuple) Strategy { return factory() }
	}
	return r
}

// builtin compiles the registered strategy called name.
func builtin(t *testing.T, name string) Factory {
	t.Helper()
	f, _, err := ResolveStrategy(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// runTrial performs one sensitive GET and classifies the outcome with
// the §3.4 notation: Failure 2 requires resets attributable to the GFW
// (its injection signature), not just any RST.
func (r *trialRig) runTrial(t *testing.T) Outcome {
	t.Helper()
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(200 * time.Millisecond)
	if c.State() == tcpstack.Established {
		c.Write([]byte("GET /?q=" + keyword + " HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	}
	r.sim.RunFor(5 * time.Second)
	gfwInjected := r.dev.Stats["inject-type1"]+r.dev.Stats["inject-type2"]+r.dev.Stats["block-enforce"] > 0
	switch {
	case bytes.Contains(c.Received(), []byte("200 OK")) && !c.GotRST:
		return Success
	case c.GotRST && gfwInjected:
		return Failure2
	default:
		return Failure1
	}
}

func evolved() gfw.Config { return gfw.Config{Model: gfw.ModelEvolved2017} }
func old() gfw.Config     { return gfw.Config{Model: gfw.ModelKhattak2013} }

// TestJunkFiller pins the decoy filler: ABCDEFGHIJKLM repeated, cut at
// any length, whether written over zeroes or over a copy's payload.
func TestJunkFiller(t *testing.T) {
	for _, n := range []int{0, 1, 12, 13, 14, 26, 27, 100, 1460} {
		over := bytes.Repeat([]byte("ultrasurf"), n/9+1)[:n]
		for _, b := range [][]byte{fillJunk(make([]byte, n)), fillJunk(over)} {
			if len(b) != n {
				t.Fatalf("n=%d: %d bytes", n, len(b))
			}
			for i, c := range b {
				if c != 'A'+byte(i%13) {
					t.Fatalf("n=%d: byte %d is %q", n, i, c)
				}
			}
		}
	}
}

func TestNoStrategyIsCensored(t *testing.T) {
	for _, cfg := range []gfw.Config{evolved(), old()} {
		r := newTrialRig(t, cfg, nil, nil)
		if got := r.runTrial(t); got != Failure2 {
			t.Fatalf("%v: outcome = %v, want failure-2", cfg.Model, got)
		}
	}
}

func TestTCBCreationOldVsEvolved(t *testing.T) {
	// Worked against the 2013 model; the evolved model resynchronizes
	// from the extra SYN and catches the keyword (§4).
	r := newTrialRig(t, old(), builtin(t, "tcb-creation-syn/ttl"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("old model: %v, want success", got)
	}
	r2 := newTrialRig(t, evolved(), builtin(t, "tcb-creation-syn/ttl"), nil)
	if got := r2.runTrial(t); got != Failure2 {
		t.Fatalf("evolved model: %v, want failure-2", got)
	}
}

func TestInOrderPrefill(t *testing.T) {
	for _, d := range []Discrepancy{DiscTTL, DiscBadChecksum, DiscBadAck, DiscNoFlag, DiscMD5, DiscOldTimestamp} {
		r := newTrialRig(t, evolved(), MustParseSpec("on:first-payload[inject(prefill,disc="+d.String()+")]").Factory(), nil)
		if got := r.runTrial(t); got != Success {
			t.Fatalf("prefill/%v: %v, want success", d, got)
		}
	}
}

func TestPrefillOldTimestampAgainstOldModel(t *testing.T) {
	r := newTrialRig(t, old(), builtin(t, "prefill/ttl"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("old model prefill: %v", got)
	}
}

func TestTeardownRSTDependsOnDeviceRSTBehaviour(t *testing.T) {
	cfgDown := evolved() // ResyncOnRSTProb 0: RST tears down
	r := newTrialRig(t, cfgDown, builtin(t, "teardown-rst/ttl"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("teardown device: %v, want success", got)
	}
	cfgResync := evolved()
	cfgResync.ResyncOnRSTProb = 1 // RST sends the TCB to resync: the request resyncs it
	r2 := newTrialRig(t, cfgResync, builtin(t, "teardown-rst/ttl"), nil)
	if got := r2.runTrial(t); got != Failure2 {
		t.Fatalf("resync device: %v, want failure-2", got)
	}
}

func TestTeardownFINFailsAgainstEvolved(t *testing.T) {
	r := newTrialRig(t, evolved(), builtin(t, "teardown-fin/ttl"), nil)
	if got := r.runTrial(t); got != Failure2 {
		t.Fatalf("FIN vs evolved: %v, want failure-2", got)
	}
	r2 := newTrialRig(t, old(), builtin(t, "teardown-fin/ttl"), nil)
	if got := r2.runTrial(t); got != Success {
		t.Fatalf("FIN vs old: %v, want success", got)
	}
}

func TestImprovedTeardownBeatsBothRSTBehaviours(t *testing.T) {
	for _, prob := range []float64{0, 1} {
		cfg := evolved()
		cfg.ResyncOnRSTProb = prob
		r := newTrialRig(t, cfg, builtin(t, "improved-teardown"), nil)
		if got := r.runTrial(t); got != Success {
			t.Fatalf("improved teardown (resync prob %v): %v, want success", prob, got)
		}
	}
	r := newTrialRig(t, old(), builtin(t, "improved-teardown"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("improved teardown vs old: %v", got)
	}
}

func TestImprovedPrefill(t *testing.T) {
	for _, cfg := range []gfw.Config{evolved(), old()} {
		r := newTrialRig(t, cfg, builtin(t, "improved-prefill"), nil)
		if got := r.runTrial(t); got != Success {
			t.Fatalf("%v: %v, want success", cfg.Model, got)
		}
	}
}

func TestResyncDesyncBeatsBothModels(t *testing.T) {
	for _, cfg := range []gfw.Config{evolved(), old()} {
		r := newTrialRig(t, cfg, builtin(t, "creation-resync-desync"), nil)
		if got := r.runTrial(t); got != Success {
			t.Fatalf("%v: %v, want success", cfg.Model, got)
		}
	}
}

func TestTCBReversalBeatsBothModels(t *testing.T) {
	for _, cfg := range []gfw.Config{evolved(), old()} {
		r := newTrialRig(t, cfg, builtin(t, "teardown-reversal"), nil)
		if got := r.runTrial(t); got != Success {
			t.Fatalf("%v: %v, want success", cfg.Model, got)
		}
	}
	// Also against a resync-on-RST evolved device.
	cfg := evolved()
	cfg.ResyncOnRSTProb = 1
	r := newTrialRig(t, cfg, builtin(t, "teardown-reversal"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("reversal vs resync-on-RST: %v", got)
	}
}

func TestOutOfOrderTCPSegOverlapPolicy(t *testing.T) {
	// Old-style devices prefer the later copy: junk wins, evasion works.
	cfg := evolved()
	cfg.SegmentLastWinsProb = 1
	r := newTrialRig(t, cfg, builtin(t, "ooo-tcpseg"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("last-wins device: %v, want success", got)
	}
	// Evolved devices that keep the first copy see the real data.
	cfg2 := evolved()
	cfg2.SegmentLastWinsProb = 0
	r2 := newTrialRig(t, cfg2, builtin(t, "ooo-tcpseg"), nil)
	if got := r2.runTrial(t); got != Failure2 {
		t.Fatalf("first-wins device: %v, want failure-2", got)
	}
}

func TestOutOfOrderIPFrag(t *testing.T) {
	// With no middlebox interference the fragment decoy blinds the GFW
	// (it keeps the first copy) while the server keeps the real data.
	r := newTrialRig(t, evolved(), builtin(t, "ooo-ipfrag"), nil)
	if got := r.runTrial(t); got != Success {
		t.Fatalf("no middleboxes: %v, want success", got)
	}
}

func TestWrongInsertionTTLCausesFailure1(t *testing.T) {
	// An insertion RST whose TTL overshoots the GFW reaches the server
	// and kills the real connection: Failure 1 (§3.4 network dynamics).
	r := newTrialRig(t, evolved(), builtin(t, "teardown-rst/ttl"), nil)
	r.engine.Env.InsertionTTL = 64 // wrong: reaches the server
	if got := r.runTrial(t); got != Failure1 {
		t.Fatalf("outcome = %v, want failure-1", got)
	}
}

func TestInsertionRepeats(t *testing.T) {
	r := newTrialRig(t, evolved(), builtin(t, "improved-teardown"), nil)
	var insertions int
	r.engine.OnOutboundRaw = func(em Emission) {
		if em.Insertion {
			insertions++
		}
	}
	r.runTrial(t)
	// 3 insertion packets × 3 waves.
	if insertions != 9 {
		t.Fatalf("insertion emissions = %d, want 9", insertions)
	}
}

func TestDiscrepancyStringsAndTable5(t *testing.T) {
	for _, d := range []Discrepancy{DiscTTL, DiscBadChecksum, DiscBadAck, DiscMD5, DiscOldTimestamp, DiscNoFlag} {
		if d.String() == "" {
			t.Fatal("empty discrepancy name")
		}
	}
	if len(PreferredDiscrepancies["SYN"]) != 1 || PreferredDiscrepancies["SYN"][0] != DiscTTL {
		t.Fatal("Table 5: SYN insertion must be TTL-only")
	}
	if len(PreferredDiscrepancies["Data"]) != 4 {
		t.Fatal("Table 5: data insertion has four constructions")
	}
}

// TestBuiltinFactoriesComplete checks that the suite intango.Strategies
// hands out has every paper strategy, each compiled from its
// registered spec.
func TestBuiltinFactoriesComplete(t *testing.T) {
	m := BuiltinFactories()
	want := []string{
		"none", "ooo-ipfrag", "ooo-tcpseg",
		"tcb-creation-syn/ttl", "tcb-creation-syn/bad-checksum",
		"teardown-rst/ttl", "teardown-rstack/ttl", "teardown-fin/ttl",
		"prefill/ttl", "prefill/bad-ack", "prefill/bad-checksum", "prefill/no-flag",
		"improved-teardown", "improved-prefill", "creation-resync-desync", "teardown-reversal",
	}
	for _, name := range want {
		f, ok := m[name]
		if !ok {
			t.Fatalf("missing factory %q", name)
		}
		_, canon, _ := ResolveStrategy(name)
		if got := f().(*Compiled).spec.String(); got != canon {
			t.Fatalf("factory %q compiles %q, want %q", name, got, canon)
		}
	}
}

func TestApplyDiscrepancies(t *testing.T) {
	rng := netem.NewSimulator(1).Rand()
	env := DefaultEnv(5, rng)
	base := func() *packet.Packet {
		return packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagPSH|packet.FlagACK, 100, 200, []byte("x"))
	}
	p := env.Apply(base(), DiscTTL)
	if p.IP.TTL != 5 {
		t.Fatalf("ttl = %d", p.IP.TTL)
	}
	p = env.Apply(base(), DiscBadChecksum)
	if p.TCP.VerifyChecksum(p.IP.Src, p.IP.Dst, p.Payload) || !p.BadTCPChecksum {
		t.Fatal("checksum should be corrupted")
	}
	p = env.Apply(base(), DiscMD5)
	if !p.TCP.HasMD5() || !p.TCP.VerifyChecksum(p.IP.Src, p.IP.Dst, p.Payload) {
		t.Fatal("md5 packet must carry the option with a valid checksum")
	}
	p = env.Apply(base(), DiscBadAck)
	if p.TCP.Ack.Diff(200) != 1<<22 {
		t.Fatalf("bad ack = %d", p.TCP.Ack)
	}
	p = env.Apply(base(), DiscNoFlag)
	if p.TCP.Flags != 0 {
		t.Fatal("flags should be cleared")
	}
	p = env.Apply(base(), DiscOldTimestamp)
	if tsval, _, ok := p.TCP.Timestamps(); !ok || tsval != 1 {
		t.Fatal("old timestamp missing")
	}
}
