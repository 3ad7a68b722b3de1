package experiment

import (
	"fmt"
	"strings"

	"intango/internal/censor"
	"intango/internal/tcpstack"
)

// AblationCensorSpec is one rung of the §8 ablation ladder: the rung's
// name and the canonical censor spec that expresses it — the gfw2017
// registry spec with the rung's harden: statements and the
// detection-miss draw pinned off (param:miss(p=0)), so no cell turns
// on a missed detection.
type AblationCensorSpec struct {
	Hardening string
	Spec      string
}

// AblationCensorSpecs returns the §8 ablation ladder — the measured GFW
// plus each discussed countermeasure — as censor-spec edits: the
// registered gfw2017 variants with the detection-miss draw pinned, each
// rung a pure text edit of the measured spec.
func AblationCensorSpecs() []AblationCensorSpec {
	pinned := func(name string) string {
		spec, ok := censor.Lookup(name)
		if !ok {
			panic("experiment: " + name + " missing from censor registry")
		}
		return strings.Replace(spec, "param:miss(p=0.028)", "param:miss(p=0)", 1)
	}
	return []AblationCensorSpec{
		{"measured (2017)", pinned(censor.GFW2017)},
		{"+checksum validation", pinned(censor.GFW2017 + "+checksum")},
		{"+md5 validation", pinned(censor.GFW2017 + "+md5")},
		{"+trust-after-server-ack", pinned(censor.GFW2017 + "+trustack")},
		{"+all of the above", pinned(censor.GFW2017 + "+all")},
	}
}

// AblationCell is one (strategy, hardening, server stack) outcome.
type AblationCell struct {
	Strategy  string
	Hardening string
	Server    string
	Outcome   Outcome
}

// ablationStrategies names the registered strategies the ablation
// sweeps: Table 4's winners, the bad-checksum prefill and West Chamber
// baselines, and the §8 MD5-tagged request.
func ablationStrategies() []string {
	return []string{
		"improved-teardown",
		"improved-prefill",
		"creation-resync-desync",
		"teardown-reversal",
		"prefill/bad-checksum",
		"west-chamber",
		"md5-request",
	}
}

// RunAblation sweeps strategies against each hardened censor on clean
// controlled paths, on a modern server and (for the MD5 arms race) a
// pre-RFC-2385 server.
func RunAblation(r *Runner) []AblationCell {
	c, cells := ablationCube(r)
	tallies, _ := r.runCube(c, nil) // unjournaled: cannot fail
	for i, t := range tallies {
		cells[i].Outcome = t.only()
	}
	return cells
}

// AblationCube is the §8 ablation's job cube (see RunAblation), for
// checkpointed runs through RunCube.
func AblationCube(r *Runner) *Cube {
	c, _ := ablationCube(r)
	return c
}

// ablationCube enumerates the ablation: one single-trial tally per
// (rung, strategy, server stack) cell, each job carrying its rung's
// censor spec. Cells differ only by rung and stack — the two stacks
// share a server name, which seeds the pair RNG — so the labels name
// both. It returns the cells with Outcome unset.
func ablationCube(r *Runner) (*Cube, []AblationCell) {
	vp := &VantagePoints()[0]
	base := controlledServers(r, 1)[0]
	var servers []Server
	for _, stack := range []tcpstack.Profile{tcpstack.Linux44(), tcpstack.Linux2437()} {
		srv := base
		srv.Stack = stack
		servers = append(servers, srv)
	}
	c := &Cube{name: "ablation"}
	var cells []AblationCell
	for _, rung := range AblationCensorSpecs() {
		for _, strat := range ablationStrategies() {
			factory := c.strategy(strat, "")
			for si := range servers {
				srv := &servers[si]
				cells = append(cells, AblationCell{Strategy: strat, Hardening: rung.Hardening, Server: srv.Stack.Name})
				sink := c.tally(strat + "@" + rung.Hardening + "@" + srv.Stack.Name)
				c.jobs = append(c.jobs, trialJob{vp: vp, srv: srv, censor: rung.Spec,
					factory: factory, sensitive: true, trial: 17, sink: sink})
			}
		}
	}
	return c, cells
}

// FormatAblation renders the matrix, one block per hardening.
func FormatAblation(cells []AblationCell) string {
	var b strings.Builder
	byHardening := map[string][]AblationCell{}
	var order []string
	for _, c := range cells {
		if _, ok := byHardening[c.Hardening]; !ok {
			order = append(order, c.Hardening)
		}
		byHardening[c.Hardening] = append(byHardening[c.Hardening], c)
	}
	for _, h := range order {
		fmt.Fprintf(&b, "%s\n", h)
		fmt.Fprintf(&b, "  %-26s %-14s %-14s\n", "strategy", "linux-4.4", "linux-2.4.37")
		byStrat := map[string]map[string]Outcome{}
		var strats []string
		for _, c := range byHardening[h] {
			if byStrat[c.Strategy] == nil {
				byStrat[c.Strategy] = map[string]Outcome{}
				strats = append(strats, c.Strategy)
			}
			byStrat[c.Strategy][c.Server] = c.Outcome
		}
		for _, s := range strats {
			fmt.Fprintf(&b, "  %-26s %-14s %-14s\n", s,
				byStrat[s]["linux-4.4"], byStrat[s]["linux-2.4.37"])
		}
	}
	return b.String()
}
