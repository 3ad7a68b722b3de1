package experiment

import (
	"fmt"
	"strings"

	"intango/internal/core"
)

// Scale controls how much of the full campaign a run covers. The paper
// ran 11 VPs × 77 websites × 50 repetitions; that is available (and
// used by cmd/tables -full), while tests and benchmarks use reduced
// scales with the same populations.
type Scale struct {
	VPs     int
	Servers int
	Trials  int
}

// PaperScale is the full §3.3 campaign.
func PaperScale() Scale { return Scale{VPs: 11, Servers: 77, Trials: 50} }

// QuickScale is a reduced campaign for tests and benches.
func QuickScale() Scale { return Scale{VPs: 11, Servers: 12, Trials: 2} }

// Table1Row is one strategy's aggregate results, with and without the
// sensitive keyword.
type Table1Row struct {
	Strategy    string
	Discrepancy string
	Sensitive   Tally
	Clean       Tally
}

// strategySpec defines one campaign strategy as data: the registry
// alias (used for observability retention labels and human output) and
// the spec text the factory is compiled from. The alias must agree
// with the core registry — TestTableSpecsMatchRegistry pins that.
type strategySpec struct {
	name string
	spec string
}

// compile builds the factory for a strategy spec, panicking on a
// malformed definition (these are compile-time tables, not user input).
func (s strategySpec) compile() core.Factory {
	f, err := core.CompileSpecAs(s.name, s.spec)
	if err != nil {
		panic(fmt.Sprintf("experiment: bad spec for %s: %v", s.name, err))
	}
	return f
}

// table1Spec is one Table 1 row definition: paper labels plus the
// strategy spec.
type table1Spec struct {
	group, disc string
	strategySpec
}

// table1Strategies lists the Table 1 rows in paper order, each defined
// by its spec.
func table1Strategies() []table1Spec {
	row := func(group, disc, name, spec string) table1Spec {
		return table1Spec{group, disc, strategySpec{name, spec}}
	}
	return []table1Spec{
		row("No Strategy", "N/A", "none", "pass"),
		row("TCB creation with SYN", "TTL", "tcb-creation-syn/ttl",
			"on:handshake[inject(syn,disc=ttl)]"),
		row("TCB creation with SYN", "Bad checksum", "tcb-creation-syn/bad-checksum",
			"on:handshake[inject(syn,disc=bad-checksum)]"),
		row("Reassembly out-of-order data", "IP fragments", "ooo-ipfrag",
			"on:first-payload(min=16,rexmit)[fragment(ip); reorder(head-last); duplicate(tails,fill=junk,pos=before)]"),
		row("Reassembly out-of-order data", "TCP segments", "ooo-tcpseg",
			"on:first-payload(min=4)[fragment(tcp,at=4); reorder(head-last); duplicate(tails,fill=junk,pos=after)]"),
		row("Reassembly in-order data", "TTL", "prefill/ttl",
			"on:first-payload[inject(prefill,disc=ttl)]"),
		row("Reassembly in-order data", "Bad ACK number", "prefill/bad-ack",
			"on:first-payload[inject(prefill,disc=bad-ack)]"),
		row("Reassembly in-order data", "Bad checksum", "prefill/bad-checksum",
			"on:first-payload[inject(prefill,disc=bad-checksum)]"),
		row("Reassembly in-order data", "No TCP flag", "prefill/no-flag",
			"on:first-payload[inject(prefill,disc=no-flag)]"),
		row("TCB teardown with RST", "TTL", "teardown-rst/ttl",
			"on:first-payload[teardown(flags=rst,disc=ttl)]"),
		row("TCB teardown with RST", "Bad checksum", "teardown-rst/bad-checksum",
			"on:first-payload[teardown(flags=rst,disc=bad-checksum)]"),
		row("TCB teardown with RST/ACK", "TTL", "teardown-rstack/ttl",
			"on:first-payload[teardown(flags=rstack,disc=ttl)]"),
		row("TCB teardown with RST/ACK", "Bad checksum", "teardown-rstack/bad-checksum",
			"on:first-payload[teardown(flags=rstack,disc=bad-checksum)]"),
		row("TCB teardown with FIN", "TTL", "teardown-fin/ttl",
			"on:first-payload[teardown(flags=finack,disc=ttl)]"),
		row("TCB teardown with FIN", "Bad checksum", "teardown-fin/bad-checksum",
			"on:first-payload[teardown(flags=finack,disc=bad-checksum)]"),
	}
}

// RunTable1 reproduces Table 1: every existing strategy probed from
// every vantage point against the website population, with and without
// the sensitive keyword.
func RunTable1(r *Runner, scale Scale) []Table1Row {
	vps := VantagePoints()[:min(scale.VPs, 11)]
	servers := Servers(scale.Servers, r.Cal, r.Seed)
	var rows []Table1Row
	for _, spec := range table1Strategies() {
		row := Table1Row{Strategy: spec.group, Discrepancy: spec.disc}
		factory := spec.compile()
		for _, vp := range vps {
			for _, srv := range servers {
				for trial := 0; trial < scale.Trials; trial++ {
					row.Sensitive.Add(r.RunOne(vp, srv, factory, true, trial))
					row.Clean.Add(r.RunOne(vp, srv, factory, false, trial+scale.Trials))
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RunTable1Parallel is RunTable1 through the campaign executor: the
// Table 1 cube fanned out across r.Workers. Results are identical to
// the serial reference loop for the same seed, and the cube is the one
// `cmd/tables -what fleet` journals through RunCube.
func RunTable1Parallel(r *Runner, scale Scale) []Table1Row {
	tallies, _ := r.runCube(Table1Cube(r, scale), nil) // unjournaled: cannot fail
	return FoldTable1(tallies)
}

// FoldTable1 lays the merged tallies of a Table 1 cube out as the
// paper's rows: tallies 2i and 2i+1 are strategy i's sensitive and
// clean arms.
func FoldTable1(tallies []Tally) []Table1Row {
	specs := table1Strategies()
	rows := make([]Table1Row, len(specs))
	for i, spec := range specs {
		rows[i] = Table1Row{Strategy: spec.group, Discrepancy: spec.disc,
			Sensitive: tallies[2*i], Clean: tallies[2*i+1]}
	}
	return rows
}

// FormatTable1 renders the rows in the paper's layout.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-14s | %21s | %15s\n", "Strategy", "Discrepancy", "w/ sensitive keyword", "w/o keyword")
	fmt.Fprintf(&b, "%-30s %-14s | %6s %6s %7s | %7s %7s\n", "", "", "Succ", "Fail1", "Fail2", "Succ", "Fail1")
	for _, row := range rows {
		s, f1, f2 := row.Sensitive.Rates()
		cs, cf1, _ := row.Clean.Rates()
		fmt.Fprintf(&b, "%-30s %-14s | %5.1f%% %5.1f%% %6.1f%% | %6.1f%% %6.1f%%\n",
			row.Strategy, row.Discrepancy, s, f1, f2, cs, cf1)
	}
	return b.String()
}
