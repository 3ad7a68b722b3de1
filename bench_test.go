package intango

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, each regenerating the corresponding artifact at a
// reduced (but shape-preserving) scale per iteration, plus
// micro-benchmarks of the substrates. Run everything with
//
//	go test -bench=. -benchmem
//
// and regenerate the full-scale artifacts with cmd/tables -scale paper.

import (
	"testing"

	"intango/internal/core"
	"intango/internal/dpi"
	"intango/internal/experiment"
	"intango/internal/gfw"
	"intango/internal/ignorepath"
	"intango/internal/netem"
	"intango/internal/packet"
)

// benchScale keeps per-iteration work bounded while covering all 11
// vantage-point profiles.
func benchScale() experiment.Scale { return experiment.Scale{VPs: 11, Servers: 4, Trials: 1} }

// BenchmarkTable1 regenerates Table 1 (all 15 existing-strategy rows,
// with and without the sensitive keyword) per iteration.
func BenchmarkTable1(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		rows := experiment.RunTable1(r, benchScale())
		if len(rows) != 15 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2 regenerates the middlebox-behaviour matrix.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if res := experiment.RunTable2(5); len(res) != 5 {
			b.Fatalf("rows = %d", len(res))
		}
	}
}

// BenchmarkTable3 reruns the §5.3 ignore-path analysis (server-model
// enumeration, GFW probing, middlebox cross-validation).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		findings := ignorepath.Analyze()
		for _, f := range findings {
			if f.UsableInsertion == f.Candidate.RouterHostile {
				b.Fatalf("%q regressed", f.Candidate.Condition)
			}
		}
	}
}

// BenchmarkTable4 regenerates the new-strategy rows (inside China).
func BenchmarkTable4(b *testing.B) {
	r := experiment.NewRunner(42)
	servers := experiment.Servers(4, r.Cal, 42)
	for i := 0; i < b.N; i++ {
		rows := experiment.RunTable4(r, experiment.VantagePoints(), servers, 1)
		if len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable4Outside regenerates the outside-China block.
func BenchmarkTable4Outside(b *testing.B) {
	r := experiment.NewRunner(42)
	servers := experiment.OutsideServers(4, r.Cal, 42)
	for i := 0; i < b.N; i++ {
		experiment.RunTable4(r, experiment.OutsideVantagePoints(), servers, 1)
	}
}

// BenchmarkTable4INTANG runs the learning INTANG series row.
func BenchmarkTable4INTANG(b *testing.B) {
	r := experiment.NewRunner(42)
	vps := experiment.VantagePoints()[:3]
	servers := experiment.Servers(2, r.Cal, 42)
	for i := 0; i < b.N; i++ {
		row := experiment.RunTable4INTANG(r, vps, servers, 3)
		if row.Success[2] < 80 {
			b.Fatalf("INTANG success %.1f", row.Success[2])
		}
	}
}

// BenchmarkTable5 validates the preferred insertion constructions.
func BenchmarkTable5(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if cells := experiment.RunTable5(r); len(cells) != 7 {
			b.Fatalf("cells = %d", len(cells))
		}
	}
}

// BenchmarkTable6 regenerates the TCP-DNS evasion table.
func BenchmarkTable6(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if rows := experiment.RunTable6(r, 2); len(rows) != 4 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTorEvasion reruns the §7.3 Tor campaign.
func BenchmarkTorEvasion(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if res := experiment.RunTor(r, 1); len(res) != 11 {
			b.Fatalf("results = %d", len(res))
		}
	}
}

// BenchmarkVPNEvasion reruns the §7.3 OpenVPN measurements.
func BenchmarkVPNEvasion(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if res := experiment.RunVPN(r); len(res) != 2 {
			b.Fatalf("results = %d", len(res))
		}
	}
}

// BenchmarkFigure1Topology renders the threat-model topology.
func BenchmarkFigure1Topology(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if experiment.Figure1(r) == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2Pipeline traces a request through every INTANG
// component.
func BenchmarkFigure2Pipeline(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if experiment.Figure2(r) == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure3Sequence emits the Fig. 3 combined-strategy packet
// sequence diagram.
func BenchmarkFigure3Sequence(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if experiment.Figure3(r) == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure4Sequence emits the Fig. 4 diagram.
func BenchmarkFigure4Sequence(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if experiment.Figure4(r) == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkResetSignature measures one full detect-and-reset cycle
// (§2.1: 1 type-1 + 3 type-2 resets, blocklisting) end to end.
func BenchmarkResetSignature(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pg := NewPlayground(PlaygroundConfig{Seed: int64(i)})
		conn := pg.Fetch("/?q=ultrasurf", nil)
		if pg.Outcome(conn) != "failure-2" {
			b.Fatal("detection did not fire")
		}
	}
}

// BenchmarkAblation sweeps the §8 countermeasure ladder (the ablation
// benches DESIGN.md calls out for the design choices).
func BenchmarkAblation(b *testing.B) {
	r := experiment.NewRunner(42)
	for i := 0; i < b.N; i++ {
		if cells := experiment.RunAblation(r); len(cells) == 0 {
			b.Fatal("empty ablation")
		}
	}
}

// --- substrate micro-benchmarks ---

// BenchmarkPacketSerialize measures TCP packet serialization with
// checksums.
func BenchmarkPacketSerialize(b *testing.B) {
	p := packet.NewTCP(packet.AddrFrom4(10, 0, 0, 1), 4000, packet.AddrFrom4(203, 0, 113, 80), 80,
		packet.FlagPSH|packet.FlagACK, 1000, 2000, make([]byte, 512))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Serialize(packet.SerializeOptions{ComputeChecksums: true, FixLengths: true})
	}
}

// BenchmarkPacketParse measures wire-format parsing.
func BenchmarkPacketParse(b *testing.B) {
	p := packet.NewTCP(packet.AddrFrom4(10, 0, 0, 1), 4000, packet.AddrFrom4(203, 0, 113, 80), 80,
		packet.FlagPSH|packet.FlagACK, 1000, 2000, make([]byte, 512))
	wire := p.Serialize(packet.SerializeOptions{ComputeChecksums: true, FixLengths: true})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := packet.Parse(wire); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPIScan measures the Aho–Corasick engine over a 1 KiB
// payload with a realistic keyword list.
func BenchmarkDPIScan(b *testing.B) {
	keywords := []string{"ultrasurf", "falun", "freegate", "dynaweb", "tiananmen", "vpn over tcp"}
	m := dpi.NewMatcher(keywords)
	payload := make([]byte, 1024)
	for i := range payload {
		payload[i] = byte('a' + i%26)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if m.Contains(payload) {
			b.Fatal("unexpected match")
		}
	}
}

// BenchmarkGFWProcessPacket measures the per-packet cost of the
// evolved device's tap path.
func BenchmarkGFWProcessPacket(b *testing.B) {
	sim := netem.NewSimulator(1)
	dev := gfw.NewDevice("gfw", gfw.Config{Model: gfw.ModelEvolved2017, Keywords: []string{"ultrasurf"}}, sim.Rand())
	ctx := &netem.Context{Sim: sim, Net: netem.NewChain(sim, 1, netem.Link{}, netem.Link{}), Node: 1}
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(203, 0, 113, 80)
	syn := packet.NewTCP(cli, 4000, srv, 80, packet.FlagSYN, 100, 0, nil)
	dev.Process(ctx, syn, netem.ToServer)
	data := packet.NewTCP(cli, 4000, srv, 80, packet.FlagACK, 101, 1, make([]byte, 256))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		data.TCP.Seq = packet.Seq(101 + i*256)
		dev.Process(ctx, data, netem.ToServer)
	}
}

// BenchmarkSimulatorEvents measures raw event throughput.
func BenchmarkSimulatorEvents(b *testing.B) {
	sim := netem.NewSimulator(1)
	b.ReportAllocs()
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			sim.At(1, tick)
		}
	}
	sim.At(1, tick)
	sim.Run(b.N + 1)
}

// BenchmarkEvasionTrial measures one complete protected fetch
// (handshake, strategy volley, detection-free response).
func BenchmarkEvasionTrial(b *testing.B) {
	factory, _, _ := core.ResolveStrategy("teardown-reversal")
	for i := 0; i < b.N; i++ {
		pg := NewPlayground(PlaygroundConfig{Seed: int64(i)})
		conn := pg.Fetch("/?q=ultrasurf", factory)
		if pg.Outcome(conn) != "success" {
			b.Fatal("evasion failed")
		}
	}
}

// BenchmarkTrialHotPath measures one complete sensitive-fetch trial
// through the experiment runner — the unit of work every campaign
// multiplies by VPs × servers × trials. allocs/op here is the number
// the pooling work is judged against (BENCH_netem.json records the
// pre- and post-PR values).
func BenchmarkTrialHotPath(b *testing.B) {
	r := experiment.NewRunner(42)
	vp := experiment.VantagePoints()[0]
	srv := experiment.Servers(1, r.Cal, 42)[0]
	factory, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.RunOne(vp, srv, factory, true, i)
	}
}

// BenchmarkCampaign measures a small multi-pair campaign per
// iteration, serially and through the parallel runner, reporting
// trials/sec shape at campaign granularity.
func BenchmarkCampaign(b *testing.B) {
	sc := experiment.Scale{VPs: 3, Servers: 2, Trials: 1}
	b.Run("serial", func(b *testing.B) {
		r := experiment.NewRunner(42)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows := experiment.RunTable1(r, sc); len(rows) != 15 {
				b.Fatalf("rows = %d", len(rows))
			}
		}
	})
	b.Run("parallel", func(b *testing.B) {
		r := experiment.NewRunner(42)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if rows := experiment.RunTable1Parallel(r, sc); len(rows) != 15 {
				b.Fatalf("rows = %d", len(rows))
			}
		}
	})
}

// BenchmarkDiagnosis runs the §3.4 controlled failure-attribution
// sweep (the paper's stated future work, implemented).
func BenchmarkDiagnosis(b *testing.B) {
	r := experiment.NewRunner(42)
	vps := experiment.VantagePoints()[:3]
	servers := experiment.Servers(4, r.Cal, 42)
	for i := 0; i < b.N; i++ {
		counts := r.DiagnoseCampaign("teardown-rst/ttl", vps, servers, 1)
		if counts["failures"] == 0 {
			b.Skip("no failures at this scale")
		}
	}
}
