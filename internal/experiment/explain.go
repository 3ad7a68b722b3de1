package experiment

import (
	"fmt"

	"intango/internal/core"
	"intango/internal/trace"
)

// FindFailingTrial deterministically locates the first failing
// sensitive trial of a strategy over the population, scanning vantage
// points, then servers, then trial indices in order. ok is false when
// every trial in the sweep succeeds. The strategy is a registered name
// or spec text (core.ResolveStrategy); one that resolves to nothing
// runs no strategy, here and in Explain.
func (r *Runner) FindFailingTrial(strategyName string, vps []VantagePoint, servers []Server, trials int) (vp VantagePoint, srv Server, trial int, ok bool) {
	factory, _, _ := core.ResolveStrategy(strategyName)
	for _, v := range vps {
		for _, s := range servers {
			for t := 0; t < trials; t++ {
				if r.RunOne(v, s, factory, true, t) != Success {
					return v, s, t, true
				}
			}
		}
	}
	return VantagePoint{}, Server{}, 0, false
}

// Explain re-runs one trial with full causal tracing and returns its
// narrative — the human-readable account of what the censor saw, what
// it did, and which packet caused what — together with the trace for
// bundle export.
func (r *Runner) Explain(vp VantagePoint, srv Server, strategyName string, trial int) (string, *trace.Trace) {
	factory, _, _ := core.ResolveStrategy(strategyName)
	_, tr := r.RunOneCausal(vp, srv, factory, strategyName, true, trial)
	return tr.Narrative(), tr
}

// ExplainFirstFailure finds the first failing trial of a strategy and
// narrates it. The error is non-nil when the sweep has no failure to
// explain.
func (r *Runner) ExplainFirstFailure(strategyName string, vps []VantagePoint, servers []Server, trials int) (string, *trace.Trace, error) {
	vp, srv, trial, ok := r.FindFailingTrial(strategyName, vps, servers, trials)
	if !ok {
		return "", nil, fmt.Errorf("no failing trial for %s across %d vantage points x %d servers x %d trials",
			strategyName, len(vps), len(servers), trials)
	}
	narrative, tr := r.Explain(vp, srv, strategyName, trial)
	return narrative, tr, nil
}
