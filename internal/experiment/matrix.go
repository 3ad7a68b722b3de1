package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"intango/internal/appsim"
	"intango/internal/censor"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// This file is the strategy × censor matrix runner: the censor-zoo
// analogue of the Table 1 campaign. Where Table 1 sweeps strategies
// against the calibrated GFW population, the matrix sweeps them
// against heterogeneous censors — GFW generations, the
// Turkmenistan-style bidirectional blocker, the Tor active prober —
// each compiled from its declarative spec (internal/censor). One run
// shows in a glance which evasion primitives transfer across censor
// architectures and which exploit GFW-specific TCB behaviour.

// MatrixCell is one (strategy, censor) aggregate.
type MatrixCell struct {
	Strategy string
	Censor   string
	T        Tally
}

// MatrixCensors lists the device censors the default matrix sweeps.
func MatrixCensors() []string {
	return []string{censor.GFW2017, censor.GFW2013, censor.Turkmenistan, censor.TorProber}
}

// matrixStrategies is the compact strategy axis: the no-strategy
// baseline, a TCB-teardown attack (GFW-specific state manipulation),
// out-of-order segmentation (poisons seq-based reassembly), and a
// segmentation that cuts inside the keyword itself — useless against a
// reassembling censor, decisive against per-packet DPI. Each is the
// registered strategy of its name unless a spec is given.
func matrixStrategies() []struct{ name, spec string } {
	return []struct{ name, spec string }{
		{"none", ""},
		{"teardown-rst/ttl", ""},
		{"ooo-tcpseg", ""},
		// "GET /search?q=ultrasurf": byte 18 is mid-keyword, so neither
		// segment carries the keyword whole. Succeeds only when the
		// server accepts the crafted segments — strict stacks drop them
		// and the client's native retransmission re-exposes the keyword
		// in one piece (the §5.3 server-cooperation caveat).
		{"inkeyword-tcpseg", "on:first-payload(min=18)[fragment(tcp,at=18)]"},
	}
}

// RunCensorMatrix sweeps the matrix strategies against each censor on
// clean controlled paths (no route dynamics, loss, or server-side
// middleboxes — differences between cells are then attributable to the
// censor alone).
func RunCensorMatrix(r *Runner, censors []string, trials int) []MatrixCell {
	c, cells := matrixCube(r, censors, trials)
	tallies, _ := r.runCube(c, nil) // unjournaled: cannot fail
	for i, t := range tallies {
		cells[i].T = t
	}
	return cells
}

// matrixCube enumerates the matrix: one tally per (censor, strategy)
// cell, each job carrying its cell's censor. Cells differ only by
// censor, so the labels name it. It returns the cells with T unset.
func matrixCube(r *Runner, censors []string, trials int) (*Cube, []MatrixCell) {
	vp := &VantagePoints()[0]
	servers := controlledServers(r, 2)
	c := &Cube{name: "censors"}
	var cells []MatrixCell
	for _, cen := range censors {
		for _, strat := range matrixStrategies() {
			factory := c.strategy(strat.name, strat.spec)
			cells = append(cells, MatrixCell{Strategy: strat.name, Censor: cen})
			sink := c.tally(strat.name + "@" + cen)
			for si := range servers {
				for trial := 0; trial < trials; trial++ {
					c.jobs = append(c.jobs, trialJob{vp: vp, srv: &servers[si], censor: cen,
						factory: factory, sensitive: true, trial: trial, sink: sink})
				}
			}
		}
	}
	return c, cells
}

// FormatCensorMatrix renders the matrix, censors as columns.
func FormatCensorMatrix(cells []MatrixCell) string {
	var censors, strats []string
	seenC := map[string]bool{}
	byKey := map[[2]string]Tally{}
	for _, c := range cells {
		if !seenC[c.Censor] {
			seenC[c.Censor] = true
			censors = append(censors, c.Censor)
		}
		if _, ok := byKey[[2]string{c.Strategy, c.Censor}]; !ok {
			found := false
			for _, s := range strats {
				if s == c.Strategy {
					found = true
					break
				}
			}
			if !found {
				strats = append(strats, c.Strategy)
			}
		}
		byKey[[2]string{c.Strategy, c.Censor}] = c.T
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "strategy \\ censor")
	for _, c := range censors {
		fmt.Fprintf(&b, " %14s", c)
	}
	b.WriteString("\n")
	for _, s := range strats {
		fmt.Fprintf(&b, "%-22s", s)
		for _, c := range censors {
			t := byKey[[2]string{s, c}]
			succ, _, _ := t.Rates()
			fmt.Fprintf(&b, " %13.1f%%", succ)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// proberDemoSession runs one client session against a bridge behind
// the tor-prober censor, lets the active probe complete, then — after
// the pair blocklist has lapsed — tries a fresh connection, which only
// an IP null-route can stop. Returns the built censor instance and the
// fresh connection's outcome.
func proberDemoSession(seed int64, obfs bool) (censor.Instance, bool) {
	sim := netem.NewSimulator(seed)
	link := netem.Link{Latency: time.Millisecond}
	path := netem.NewChain(sim, 9, link, link)
	// The censor sits at the fourth router.
	inst, err := censor.Attach(path.Node(4), censor.TorProber, "tor-prober", true,
		sim.Rand(), rand.New(rand.NewSource(seed^0x70726f6265)))
	if err != nil {
		panic(fmt.Sprintf("experiment: build tor-prober: %v", err))
	}

	bridge := packet.AddrFrom4(52, 3, 17, 99)
	srv := tcpstack.NewStack(bridge, tcpstack.Linux44(), sim)
	srv.AttachServer(path)
	if obfs {
		appsim.ServeObfsBridge(srv, 9001)
	} else {
		appsim.ServeTorBridge(srv, 9001)
	}
	cli := tcpstack.NewStack(packet.AddrFrom4(10, 1, 1, 1), tcpstack.Linux44(), sim)
	cli.AttachClient(path)

	conn := cli.Connect(bridge, 9001)
	sim.RunFor(500 * time.Millisecond)
	if conn.State() == tcpstack.Established {
		conn.Write(appsim.TorClientHello())
	}
	// Probe delay is 15 s; the pair blocklist from the fingerprint
	// reset lasts 90 s. Wait both out, then test plain reachability.
	sim.RunFor(2 * time.Minute)
	fresh := cli.Connect(bridge, 9001)
	sim.RunFor(500 * time.Millisecond)
	return inst, fresh.State() == tcpstack.Established
}

// FormatProberDemo contrasts the tor-prober censor against a vanilla
// Tor bridge (fingerprint → probe → confirm → IP null-route) and a
// probe-resistant obfuscated bridge (Winter & Lindskog's
// countermeasure: the prober's replayed handshake draws an opaque
// blob, confirmation fails, the IP survives).
func FormatProberDemo(seed int64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %-12s %-8s %-9s %-9s %-9s\n",
		"bridge", "fingerprint", "probes", "confirmed", "ip-block", "reachable-after")
	for _, tc := range []struct {
		name string
		obfs bool
	}{
		{"vanilla-tor", false},
		{"obfs-bridge", true},
	} {
		inst, reachable := proberDemoSession(seed, tc.obfs)
		fmt.Fprintf(&b, "%-16s %-12d %-8d %-9d %-9d %-9v\n",
			tc.name, inst.Stat("tor-fingerprint"), inst.Stat("tor-probe-launch"),
			inst.Stat("tor-probe-confirm"), inst.Stat("ip-block"), reachable)
	}
	return b.String()
}

// WriteCensorsCampaign writes the `-what censors` artifact: the
// registry's name ↔ canonical-spec table, the strategy × censor
// matrix, and the active-probing demonstration.
func WriteCensorsCampaign(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "== censor zoo: registered censors (canonical specs) ==")
	fmt.Fprint(w, censor.FormatTable())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== strategy × censor matrix (success rate, sensitive fetches) ==")
	fmt.Fprint(w, FormatCensorMatrix(RunCensorMatrix(r, MatrixCensors(), 4)))
	fmt.Fprintln(w)
	fmt.Fprintln(w, "== active probing: vanilla vs probe-resistant bridge (tor-prober censor) ==")
	fmt.Fprint(w, FormatProberDemo(r.Seed))
}
