package experiment

import (
	"fmt"
	"strings"

	"intango/internal/core"
)

// Table5Cell is one (packet type, discrepancy) construction with its
// validation outcome.
type Table5Cell struct {
	PacketType  string
	Discrepancy core.Discrepancy
	Preferred   bool
	// Validated: a controlled trial using an evasion strategy built on
	// exactly this insertion construction succeeded.
	Validated bool
}

// RunTable5 reproduces Table 5: for every preferred insertion-packet
// construction, run the corresponding strategy on a clean controlled
// path and confirm it evades.
func RunTable5(r *Runner) []Table5Cell {
	c, cells := table5Cube(r)
	tallies, _ := r.runCube(c, nil) // unjournaled: cannot fail
	for i, t := range tallies {
		cells[i].Validated = t.Success == t.Total
	}
	return cells
}

// table5Cube enumerates the Table 5 validation: one tally per
// construction, labelled by its strategy, over three controlled
// servers. It returns the cells with Validated still unset.
func table5Cube(r *Runner) (*Cube, []Table5Cell) {
	vp := &VantagePoints()[0] // Aliyun profile, benign for these packets
	servers := controlledServers(r, 3)

	strategyFor := func(ptype string, d core.Discrepancy) strategySpec {
		switch ptype {
		case "SYN":
			// SYN insertions are exercised by the combined creation
			// strategy (its insertions are TTL-crafted SYNs).
			return strategySpec{"creation-resync-desync",
				"on:handshake[inject(syn,disc=ttl)] on:first-payload[inject(syn,disc=ttl); inject(desync)]"}
		case "RST":
			return strategySpec{"teardown-rst/" + d.String(),
				"on:first-payload[teardown(flags=rst,disc=" + d.String() + ")]"}
		default: // Data
			return strategySpec{"prefill/" + d.String(),
				"on:first-payload[inject(prefill,disc=" + d.String() + ")]"}
		}
	}

	c := &Cube{name: "table5"}
	var cells []Table5Cell
	for _, spec := range []struct {
		ptype string
		disc  core.Discrepancy
	}{
		{"SYN", core.DiscTTL},
		{"RST", core.DiscTTL},
		{"RST", core.DiscMD5},
		{"Data", core.DiscTTL},
		{"Data", core.DiscMD5},
		{"Data", core.DiscBadAck},
		{"Data", core.DiscOldTimestamp},
	} {
		cells = append(cells, Table5Cell{PacketType: spec.ptype, Discrepancy: spec.disc, Preferred: preferred(spec.ptype, spec.disc)})
		strat := strategyFor(spec.ptype, spec.disc)
		factory := c.compile(strat)
		sink := c.tally(strat.name)
		for si := range servers {
			c.jobs = append(c.jobs, trialJob{vp: vp, srv: &servers[si], censor: r.Censor,
				factory: factory, sensitive: true, sink: sink})
		}
	}
	return c, cells
}

func preferred(ptype string, d core.Discrepancy) bool {
	for _, p := range core.PreferredDiscrepancies[ptype] {
		if p == d {
			return true
		}
	}
	return false
}

// FormatTable5 renders the preferred-construction matrix with
// validation marks.
func FormatTable5(cells []Table5Cell) string {
	discs := []core.Discrepancy{core.DiscTTL, core.DiscMD5, core.DiscBadAck, core.DiscOldTimestamp}
	types := []string{"SYN", "RST", "Data"}
	cell := func(t string, d core.Discrepancy) string {
		for _, c := range cells {
			if c.PacketType == t && c.Discrepancy == d {
				if c.Validated {
					return "ok"
				}
				return "FAIL"
			}
		}
		return "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-8s %-8s %-12s\n", "Type", "TTL", "MD5", "BadACK", "Timestamp")
	for _, t := range types {
		fmt.Fprintf(&b, "%-8s", t)
		for _, d := range discs {
			fmt.Fprintf(&b, " %-8s", cell(t, d))
		}
		b.WriteString("\n")
	}
	return b.String()
}
