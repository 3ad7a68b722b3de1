package experiment

import (
	"fmt"
	"strings"

	"intango/internal/core"
	"intango/internal/middlebox"
	"intango/internal/obs"
	"intango/internal/tcpstack"
	"intango/internal/trace"
)

// The §3.4 future-work item, implemented: "To fully untangle the
// factors causing failures and to quantify the impact of each, more
// in-depth analysis and controlled experiments are required (e.g.,
// using controlled replay server as in [18])." Given a failing trial,
// Diagnose re-runs it in controlled variants with one suspected factor
// removed at a time and reports which removals flip the outcome — the
// simulated equivalent of moving the experiment onto a controlled
// replay server.

// Factor is one suspected failure cause that can be removed.
type Factor struct {
	Name  string
	apply func(vp *VantagePoint, srv *Server, cal *Calibration)
}

// Factors returns the §3.4 failure-cause taxonomy: client-side
// middleboxes, server-side middleboxes, server implementation
// variation, network dynamics, packet loss, and GFW RST heterogeneity.
func Factors() []Factor {
	return []Factor{
		{"client-side-middleboxes", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			vp.Profile = middlebox.ProfileName("")
		}},
		{"server-side-middleboxes", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			srv.ServerSideFirewall = false
		}},
		{"server-implementation", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			srv.Stack = tcpstack.Linux44()
		}},
		{"route-dynamics", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			srv.RouteDynamicsProb = 0
		}},
		{"packet-loss", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			srv.LossRate = 0
		}},
		{"gfw-rst-resync", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			cal.ResyncOnRSTProb = 0
		}},
		{"gfw-overlap-heterogeneity", func(vp *VantagePoint, srv *Server, cal *Calibration) {
			cal.SegmentLastWinsProb = 1
		}},
	}
}

// Attribution is the diagnosis for one factor.
type Attribution struct {
	Factor string
	// Outcome is the trial result with only this factor removed.
	Outcome Outcome
	// Explains: removing the factor alone flips the trial to success.
	Explains bool
	// FirstDivergence is the first flight-recorder event at which the
	// controlled re-run departs from the baseline trial's trace — the
	// mechanism, not just the fact, of the factor's influence. Empty
	// when both traces agree event-for-event.
	FirstDivergence string
	// Bundle is the controlled re-run's full causal trace, attached
	// whenever the re-run diverged from the baseline. WriteBundle
	// exports it for offline inspection.
	Bundle *trace.Trace
}

// Diagnosis is the full controlled-experiment result for one failing
// trial.
type Diagnosis struct {
	VP, Server, Strategy string
	Baseline             Outcome
	// BaselineTrace is the failing trial's flight-recorder snapshot.
	BaselineTrace []obs.Event
	// BaselineBundle is the failing trial's full causal trace.
	BaselineBundle *trace.Trace
	Attributions   []Attribution
	// Residual: no single factor explains the failure (interaction or
	// inherent strategy weakness).
	Residual bool
}

// Diagnose reruns a trial under controlled variants, each on the
// runner's censor and topology. A nil factory means no strategy. Each
// run is fully causally traced: the baseline's bundle is always
// attached, and each factor re-run that diverges from the baseline
// keeps its own bundle for offline inspection.
func (r *Runner) Diagnose(vp VantagePoint, srv Server, strategyName string, trial int) Diagnosis {
	factory := core.BuiltinFactories()[strategyName]
	diag := Diagnosis{VP: vp.Name, Server: srv.Name, Strategy: strategyName}
	var baseTr *trace.Trace
	diag.Baseline, baseTr = r.RunOneCausal(vp, srv, factory, strategyName, true, trial)
	diag.BaselineTrace = baseTr.Events
	diag.BaselineBundle = baseTr
	if diag.Baseline == Success {
		return diag
	}
	anyExplains := false
	for _, f := range Factors() {
		vpCopy, srvCopy, calCopy := vp, srv, r.Cal
		f.apply(&vpCopy, &srvCopy, &calCopy)
		sub := &Runner{Cal: calCopy, Seed: r.Seed, Censor: r.Censor, Topo: r.Topo, NoPool: r.NoPool}
		out, tr := sub.RunOneCausal(vpCopy, srvCopy, factory, strategyName+" -"+f.Name, true, trial)
		att := Attribution{
			Factor: f.Name, Outcome: out, Explains: out == Success,
			FirstDivergence: firstDivergence(diag.BaselineTrace, tr.Events),
		}
		if att.FirstDivergence != "" {
			att.Bundle = tr
		}
		if att.Explains {
			anyExplains = true
		}
		diag.Attributions = append(diag.Attributions, att)
	}
	diag.Residual = !anyExplains
	return diag
}

// WriteDiagnosisBundles exports a diagnosis's causal traces into dir:
// the baseline failing trial as <prefix>-baseline.*, and every
// divergent factor re-run as <prefix>-without-<factor>.*. Each bundle
// is a pcap + JSONL + Chrome trace + narrative set. It returns every
// path written.
func WriteDiagnosisBundles(d Diagnosis, dir string) ([]string, error) {
	prefix := sanitizeName(d.Strategy)
	if prefix == "" {
		prefix = "trial"
	}
	var paths []string
	if d.BaselineBundle != nil {
		p, err := d.BaselineBundle.WriteBundle(dir, prefix+"-baseline")
		if err != nil {
			return paths, err
		}
		paths = append(paths, p...)
	}
	for _, att := range d.Attributions {
		if att.Bundle == nil {
			continue
		}
		p, err := att.Bundle.WriteBundle(dir, prefix+"-without-"+sanitizeName(att.Factor))
		if err != nil {
			return paths, err
		}
		paths = append(paths, p...)
	}
	return paths, nil
}

// sanitizeName makes a strategy or factor name filesystem-safe.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ':', ' ':
			return '-'
		}
		return r
	}, s)
}

// DiagnoseCampaign sweeps a strategy over the population, diagnoses
// every failure, and aggregates how often each factor explains one —
// "quantify the impact of each" (§3.4).
func (r *Runner) DiagnoseCampaign(strategyName string, vps []VantagePoint, servers []Server, trials int) map[string]int {
	counts := map[string]int{}
	factory := core.BuiltinFactories()[strategyName]
	for _, vp := range vps {
		for _, srv := range servers {
			for trial := 0; trial < trials; trial++ {
				if r.RunOne(vp, srv, factory, true, trial) == Success {
					continue
				}
				counts["failures"]++
				diag := r.Diagnose(vp, srv, strategyName, trial)
				for _, att := range diag.Attributions {
					if att.Explains {
						counts[att.Factor]++
					}
				}
				if diag.Residual {
					counts["residual"]++
				}
			}
		}
	}
	return counts
}

// firstDivergence reports where the controlled re-run's trace first
// departs from the baseline's, comparing the retained windows of both
// rings position by position. Both runs are deterministic, so the
// first differing event is exactly where the removed factor began to
// matter. Empty means the traces agree event-for-event.
func firstDivergence(base, alt []obs.Event) string {
	n := len(base)
	if len(alt) < n {
		n = len(alt)
	}
	for i := 0; i < n; i++ {
		if base[i] != alt[i] {
			return fmt.Sprintf("#%d %s (baseline: %s)", i, alt[i], base[i])
		}
	}
	switch {
	case len(alt) > n:
		return fmt.Sprintf("#%d %s (baseline trace ends)", n, alt[n])
	case len(base) > n:
		return fmt.Sprintf("#%d trace ends (baseline: %s)", n, base[n])
	}
	return ""
}

// FormatDiagnosisDetail renders one trial's diagnosis including where
// each factor's controlled re-run diverged from the baseline trace.
func FormatDiagnosisDetail(d Diagnosis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s via %s against %s: baseline %s\n", d.VP, d.Strategy, d.Server, d.Baseline)
	for _, att := range d.Attributions {
		marker := " "
		if att.Explains {
			marker = "*"
		}
		fmt.Fprintf(&b, " %s -%-26s -> %-9s", marker, att.Factor, att.Outcome)
		if att.FirstDivergence != "" {
			fmt.Fprintf(&b, " diverges at %s", att.FirstDivergence)
		}
		b.WriteByte('\n')
	}
	if d.Residual {
		b.WriteString("   no single factor explains the failure\n")
	}
	return b.String()
}

// FormatDiagnosis renders a campaign's factor attribution.
func FormatDiagnosis(strategy string, counts map[string]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "failure attribution for %s (%d failures):\n", strategy, counts["failures"])
	for _, f := range Factors() {
		if n := counts[f.Name]; n > 0 {
			fmt.Fprintf(&b, "  %-28s explains %d\n", f.Name, n)
		}
	}
	if n := counts["residual"]; n > 0 {
		fmt.Fprintf(&b, "  %-28s %d (interactions / inherent)\n", "no single factor", n)
	}
	return b.String()
}
