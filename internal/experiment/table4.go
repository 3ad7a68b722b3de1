package experiment

import (
	"fmt"
	"strings"

	"intango/internal/middlebox"
	"intango/internal/packet"
)

// OutsideVantagePoints returns the §7 outside-China clients (Amazon
// EC2 in US, UK, Germany, Japan): no interfering client-side
// middleboxes, Tor-irrelevant.
func OutsideVantagePoints() []VantagePoint {
	mk := func(i int, name string) VantagePoint {
		return VantagePoint{
			Name:    "ec2-" + name,
			City:    name,
			ISP:     "ec2",
			Profile: middlebox.ProfileName(""),
			Addr:    packet.AddrFrom4(10, 100, byte(i), 1),
		}
	}
	return []VantagePoint{mk(1, "us"), mk(2, "uk"), mk(3, "de"), mk(4, "jp")}
}

// Table4Row is one strategy's per-vantage-point Min/Max/Avg triple for
// each outcome, as the paper reports it.
type Table4Row struct {
	Strategy string
	// Per-outcome [min, max, avg] percentages across vantage points.
	Success, Failure1, Failure2 [3]float64
}

// table4Spec is one §7.1 strategy row definition: paper label plus the
// registered strategy the row runs.
type table4Spec struct {
	label, name string
}

// table4Strategies lists the §7.1 strategy rows.
func table4Strategies() []table4Spec {
	return []table4Spec{
		{"Improved TCB Teardown", "improved-teardown"},
		{"Improved In-order Data Overlapping", "improved-prefill"},
		{"TCB Creation + Resync/Desync", "creation-resync-desync"},
		{"TCB Teardown + TCB Reversal", "teardown-reversal"},
	}
}

// RunTable4 reproduces the strategy rows of Table 4 over the given
// vantage points and servers (use VantagePoints()+Servers for the
// inside-China block, OutsideVantagePoints()+OutsideServers for the
// outside block).
func RunTable4(r *Runner, vps []VantagePoint, servers []Server, trials int) []Table4Row {
	tallies, _ := r.runCube(table4Cube(r, vps, servers, trials), nil) // unjournaled: cannot fail
	specs := table4Strategies()
	rows := make([]Table4Row, len(specs))
	for si, spec := range specs {
		rows[si] = summarizeVPs(spec.label, tallies[si*len(vps):(si+1)*len(vps)])
	}
	return rows
}

// table4Cube enumerates the Table 4 strategy rows: one tally per
// (strategy, vantage point), strategy-major.
func table4Cube(r *Runner, vps []VantagePoint, servers []Server, trials int) *Cube {
	c := &Cube{name: "table4"}
	for _, spec := range table4Strategies() {
		factory := c.strategy(spec.name, "")
		for vi := range vps {
			vp := &vps[vi]
			sink := c.tally(spec.name)
			for si := range servers {
				srv := &servers[si]
				for trial := 0; trial < trials; trial++ {
					c.jobs = append(c.jobs, trialJob{vp: vp, srv: srv, censor: r.Censor,
						factory: factory, sensitive: true, trial: trial, sink: sink})
				}
			}
		}
	}
	return c
}

// RunTable4INTANG reproduces the "INTANG Performance" row: a
// persistent, learning INTANG instance per pair.
func RunTable4INTANG(r *Runner, vps []VantagePoint, servers []Server, trials int) Table4Row {
	perVP := make([]Tally, len(vps))
	for vi, vp := range vps {
		for _, srv := range servers {
			for _, out := range r.RunINTANGSeries(vp, srv, trials) {
				perVP[vi].Add(out)
			}
		}
	}
	return summarizeVPs("INTANG Performance", perVP)
}

func summarizeVPs(label string, perVP []Tally) Table4Row {
	row := Table4Row{Strategy: label}
	var sMin, sMax, sSum = 101.0, -1.0, 0.0
	var f1Min, f1Max, f1Sum = 101.0, -1.0, 0.0
	var f2Min, f2Max, f2Sum = 101.0, -1.0, 0.0
	n := 0
	for _, tally := range perVP {
		if tally.Total == 0 {
			continue
		}
		n++
		s, f1, f2 := tally.Rates()
		sMin, sMax, sSum = min(sMin, s), max(sMax, s), sSum+s
		f1Min, f1Max, f1Sum = min(f1Min, f1), max(f1Max, f1), f1Sum+f1
		f2Min, f2Max, f2Sum = min(f2Min, f2), max(f2Max, f2), f2Sum+f2
	}
	if n == 0 {
		return row
	}
	row.Success = [3]float64{sMin, sMax, sSum / float64(n)}
	row.Failure1 = [3]float64{f1Min, f1Max, f1Sum / float64(n)}
	row.Failure2 = [3]float64{f2Min, f2Max, f2Sum / float64(n)}
	return row
}

// FormatTable4 renders one block (inside or outside China).
func FormatTable4(block string, rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", block)
	fmt.Fprintf(&b, "%-36s | %-20s | %-20s | %-20s\n", "Strategy", "Success min/max/avg", "Fail1 min/max/avg", "Fail2 min/max/avg")
	for _, row := range rows {
		fmt.Fprintf(&b, "%-36s | %5.1f %5.1f %5.1f    | %5.1f %5.1f %5.1f    | %5.1f %5.1f %5.1f\n",
			row.Strategy,
			row.Success[0], row.Success[1], row.Success[2],
			row.Failure1[0], row.Failure1[1], row.Failure1[2],
			row.Failure2[0], row.Failure2[1], row.Failure2[2])
	}
	return b.String()
}
