package experiment

import (
	"fmt"
	"io"
)

// The Write*Campaign functions produce the exact byte streams
// `cmd/tables -what 1|4|5` prints — header, table, trailing blank line.
// They exist so the CLI and the golden-file regression tests share one
// formatting path: TestTablesMatchGolden regenerates these streams and
// compares them against internal/experiment/testdata/*.golden, pinning
// the strategy refactor to bit-identical output.

// WriteTable1Campaign runs and prints the Table 1 campaign.
func WriteTable1Campaign(w io.Writer, r *Runner, sc Scale) {
	fmt.Fprintf(w, "== Table 1: existing strategies (%d VPs × %d servers × %d trials) ==\n",
		sc.VPs, sc.Servers, sc.Trials)
	fmt.Fprint(w, FormatTable1(RunTable1Parallel(r, sc)))
	fmt.Fprintln(w)
}

// WriteTable4Campaign runs and prints the Table 4 campaign, inside and
// outside blocks plus the persistent-INTANG row.
func WriteTable4Campaign(w io.Writer, r *Runner, sc Scale) {
	fmt.Fprintf(w, "== Table 4: new strategies (%d servers × %d trials) ==\n", sc.Servers, sc.Trials)
	inside := RunTable4(r, VantagePoints(), Servers(sc.Servers, r.Cal, r.Seed), sc.Trials)
	inside = append(inside, RunTable4INTANG(r,
		VantagePoints(), Servers(sc.Servers/2+1, r.Cal, r.Seed), sc.Trials))
	fmt.Fprint(w, FormatTable4("Inside China", inside))
	outN := sc.Servers / 2
	if outN < 4 {
		outN = 4
	}
	outside := RunTable4(r, OutsideVantagePoints(),
		OutsideServers(outN, r.Cal, r.Seed), sc.Trials)
	fmt.Fprint(w, FormatTable4("Outside China", outside))
	fmt.Fprintln(w)
}

// WriteTable5Campaign runs and prints the Table 5 validation.
func WriteTable5Campaign(w io.Writer, r *Runner) {
	fmt.Fprintln(w, "== Table 5: preferred insertion-packet constructions ==")
	fmt.Fprint(w, FormatTable5(RunTable5(r)))
	fmt.Fprintln(w)
}
