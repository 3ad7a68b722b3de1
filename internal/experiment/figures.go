package experiment

import (
	"fmt"
	"strings"
	"time"

	"intango/internal/appsim"
	"intango/internal/core"
	"intango/internal/gfw"
	"intango/internal/intang"
	"intango/internal/netem"
	"intango/internal/packet"
)

// Figure1 renders the threat model of Fig. 1: client, client-side
// middleboxes, the GFW wiretap, server-side middleboxes, server.
func Figure1(r *Runner) string {
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, r.Seed)[0]
	srv.ServerSideFirewall = true
	rg := r.build(vp, srv, r.topoOverride(), r.Censor, 1, r.newArena())
	var b strings.Builder
	b.WriteString("Fig. 1 — Threat model (on-path GFW between client and server):\n")
	b.WriteString(rg.net.Describe())
	b.WriteString("\n")
	fmt.Fprintf(&b, "GFW devices: %d on-path wiretap(s) at hop %d (read + inject, never drop)\n",
		len(rg.devices), srv.GFWHop)
	return b.String()
}

// Figure2 renders the INTANG component architecture of Fig. 2 and
// traces one request through all components.
func Figure2(r *Runner) string {
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, r.Seed)[0]
	rg := r.build(vp, srv, r.topoOverride(), r.Censor, 2, r.newArena())
	it := intang.New(rg.sim, rg.net, rg.cli, intang.Options{Resolver: srv.Addr})
	it.Engine.Env.InsertionTTL = insertionTTL(srv)
	appsim.ServeDNSTCP(rg.srv, appsim.Zone{})
	var b strings.Builder
	b.WriteString("Fig. 2 — INTANG components:\n")
	b.WriteString(it.Describe())
	// Exercise every component once: hop measurement, a protected HTTP
	// fetch (strategy + cache), and a forwarded DNS query.
	it.MeasureHops(srv.Addr, 80)
	rg.sim.RunFor(2 * time.Second)
	conn := fetch(rg, srv, true)
	query, _ := dnsQueryBytes()
	rg.cli.SendUDP(5353, srv.Addr, 53, query)
	rg.sim.RunFor(10 * time.Second)
	fmt.Fprintf(&b, "trace: hops=%v strategy=%s cacheHit=%v fetchOK=%v dnsForwarded=%d\n",
		firstHop(it, srv.Addr), it.ChooseStrategy(srv.Addr), it.Stats["success"] > 0,
		appsim.HTTPResponseComplete(conn.Received()), it.Stats["dns-forwarded"])
	return b.String()
}

func dnsQueryBytes() ([]byte, error) {
	return []byte{0, 9, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 3, 'c', 'o', 'm', 0, 0, 1, 0, 1}, nil
}

func firstHop(it *intang.INTANG, dst packet.Addr) int {
	h, _ := it.HopsTo(dst)
	return h
}

// SequenceDiagram runs one instrumented trial of a strategy and renders
// the packet time-sequence the way Figs. 3 and 4 draw it, with the GFW
// devices' internal state transitions interleaved.
func SequenceDiagram(r *Runner, factoryName, title string) string {
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, r.Seed)[0]
	srv.Mix = BothModels
	rg := r.build(vp, srv, r.topoOverride(), r.Censor, 3, r.newArena())
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	for _, dev := range rg.devices {
		// Event subscription is engine-specific; non-GFW zoo censors
		// simply contribute no state-transition lines.
		gd, ok := dev.(*gfw.Device)
		if !ok {
			continue
		}
		gd.OnEvent = func(ev gfw.Event) {
			switch ev.Kind {
			case "tcb-create", "tcb-create-reversed", "resync", "resync-applied", "teardown", "detect":
				fmt.Fprintf(&b, "%9.3fms      %s: %s %s\n", ms(rg.sim.Now()), gd.Name(), ev.Kind, ev.Detail)
			}
		}
	}
	rg.net.Trace = func(ev netem.TraceEvent) {
		if ev.Pkt.TCP == nil {
			return
		}
		switch {
		case ev.Where == "client" && ev.Event == "send":
			fmt.Fprintf(&b, "%9.3fms  client ─▶        %s\n", ms(ev.Time), label(ev.Pkt))
		case ev.Where == "server" && ev.Event == "send":
			fmt.Fprintf(&b, "%9.3fms        ◀─ server  %s\n", ms(ev.Time), label(ev.Pkt))
		case ev.Event == "inject":
			fmt.Fprintf(&b, "%9.3fms      GFW ✦ inject  %s %s\n", ms(ev.Time), ev.Dir, label(ev.Pkt))
		case ev.Event == "drop-ttl":
			fmt.Fprintf(&b, "%9.3fms      ✗ TTL expiry at %s: %s\n", ms(ev.Time), ev.Where, label(ev.Pkt))
		}
	}
	factory, _, _ := core.ResolveStrategy(factoryName)
	rg.arm(&srv, factory)
	conn := fetch(rg, srv, true)
	fmt.Fprintf(&b, "outcome: %v\n", classify(rg, conn, true))
	return b.String()
}

// Figure3 renders the Fig. 3 combined strategy sequence: TCB Creation +
// Resync/Desync.
func Figure3(r *Runner) string {
	return SequenceDiagram(r, "creation-resync-desync",
		"Fig. 3 — Combined strategy: TCB Creation + Resync/Desync")
}

// Figure4 renders the Fig. 4 combined strategy sequence: TCB Teardown +
// TCB Reversal.
func Figure4(r *Runner) string {
	return SequenceDiagram(r, "teardown-reversal",
		"Fig. 4 — Combined strategy: TCB Teardown + TCB Reversal")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func label(p *packet.Packet) string {
	tcp := p.TCP
	kind := packet.FlagString(tcp.Flags)
	extra := ""
	if tcp.HasMD5() {
		extra += " +md5"
	}
	if p.BadTCPChecksum {
		extra += " +badck"
	}
	if p.IP.TTL < 32 {
		extra += fmt.Sprintf(" ttl=%d", p.IP.TTL)
	}
	if n := len(p.Payload); n > 0 {
		extra += fmt.Sprintf(" len=%d", n)
	}
	return fmt.Sprintf("[%s] seq=%d ack=%d%s", kind, uint32(tcp.Seq), uint32(tcp.Ack), extra)
}
