package experiment

import (
	"fmt"
	"strings"
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

// table1Spec is one Table 1 row definition: paper labels plus the
// registered strategy the row runs.
type table1Spec struct {
	group, disc, name string
}

// table1Strategies lists the Table 1 rows in paper order.
func table1Strategies() []table1Spec {
	return []table1Spec{
		{"No Strategy", "N/A", "none"},
		{"TCB creation with SYN", "TTL", "tcb-creation-syn/ttl"},
		{"TCB creation with SYN", "Bad checksum", "tcb-creation-syn/bad-checksum"},
		{"Reassembly out-of-order data", "IP fragments", "ooo-ipfrag"},
		{"Reassembly out-of-order data", "TCP segments", "ooo-tcpseg"},
		{"Reassembly in-order data", "TTL", "prefill/ttl"},
		{"Reassembly in-order data", "Bad ACK number", "prefill/bad-ack"},
		{"Reassembly in-order data", "Bad checksum", "prefill/bad-checksum"},
		{"Reassembly in-order data", "No TCP flag", "prefill/no-flag"},
		{"TCB teardown with RST", "TTL", "teardown-rst/ttl"},
		{"TCB teardown with RST", "Bad checksum", "teardown-rst/bad-checksum"},
		{"TCB teardown with RST/ACK", "TTL", "teardown-rstack/ttl"},
		{"TCB teardown with RST/ACK", "Bad checksum", "teardown-rstack/bad-checksum"},
		{"TCB teardown with FIN", "TTL", "teardown-fin/ttl"},
		{"TCB teardown with FIN", "Bad checksum", "teardown-fin/bad-checksum"},
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
		factory, _ := mustResolve(spec.name, "")
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
