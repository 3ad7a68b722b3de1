package experiment

import (
	"sort"
	"time"

	"intango/internal/obs"
)

// maxFailures is how many failing-trial flight-recorder traces a sink
// retains.
const maxFailures = 4

// ObsSink accumulates observability output across a batch of trials: a
// counter registry shared by every instrumented subsystem, per-trial
// event volumes for the campaign aggregate, and the flight-recorder
// traces of a bounded, deterministically chosen set of failing trials.
//
// The campaign executor gives each job shard its own sink and folds
// them back with merge; because counter merging is addition and failure
// retention is minimum-N by a total trial order, the merged sink is
// bit-identical to a serial run over the same jobs.
type ObsSink struct {
	// Registry receives every counter increment from the attached
	// subsystems plus the sink's own trials.* outcome counters.
	Registry *obs.Registry

	trials         int
	eventsPerTrial []int
	failures       []TrialTrace
}

// TrialTrace is the flight-recorder snapshot of one failing trial,
// keyed by the parameters that uniquely identify the trial.
type TrialTrace struct {
	Strategy  string
	VP        string
	Server    string
	Sensitive bool
	Trial     int
	Outcome   Outcome
	// Dropped counts ring-evicted events preceding Events.
	Dropped uint64
	Events  []obs.Event
}

// NewObsSink returns an empty sink with a fresh registry.
func NewObsSink() *ObsSink {
	return &ObsSink{Registry: obs.NewRegistry()}
}

// merge folds a shard's sink into s. Counter merge is addition, so any
// merge order yields the same totals.
func (s *ObsSink) merge(sh *ObsSink) {
	if sh == nil {
		return
	}
	s.Registry.Merge(sh.Registry)
	s.trials += sh.trials
	s.eventsPerTrial = append(s.eventsPerTrial, sh.eventsPerTrial...)
	s.failures = append(s.failures, sh.failures...)
	s.compact()
}

// absorb records one finished trial: the simulator's event count, the
// outcome, the flight-recorder volume, and — on failure — the trace.
func (s *ObsSink) absorb(rg *rig, label, vp, srv string, sensitive bool, trial int, out Outcome, rec *obs.Recorder) {
	rg.net.FlushCounters()
	s.Registry.Add("netem.events", rg.sim.Steps())
	s.Registry.Inc("trials.total")
	s.Registry.Inc("trials." + out.String())
	s.trials++
	s.eventsPerTrial = append(s.eventsPerTrial, int(rec.Total()))
	if out != Success {
		s.failures = append(s.failures, TrialTrace{
			Strategy: label, VP: vp, Server: srv,
			Sensitive: sensitive, Trial: trial, Outcome: out,
			Dropped: rec.Dropped(), Events: rec.Events(),
		})
		s.compact()
	}
}

// absorbSeries records a whole RunINTANGSeries simulation: one shared
// rig, many trials. Traces are not retained (the single ring spans all
// trials), only counters and throughput.
func (s *ObsSink) absorbSeries(rg *rig, outcomes []Outcome) {
	rg.net.FlushCounters()
	s.Registry.Add("netem.events", rg.sim.Steps())
	for _, out := range outcomes {
		s.Registry.Inc("trials.total")
		s.Registry.Inc("trials." + out.String())
		s.trials++
	}
}

// compact bounds the failure slice without breaking determinism: once
// it doubles past maxFailures, sort by the trial key and keep the
// smallest maxFailures. An element is only ever dropped when
// maxFailures smaller-keyed elements are already retained, so the
// per-shard minimum-N set survives every compaction — and the global
// minimum-N set is always contained in the union of shard minimum-N
// sets, which is what makes serial and parallel retention identical.
func (s *ObsSink) compact() {
	if len(s.failures) <= 2*maxFailures {
		return
	}
	sortTraces(s.failures)
	s.failures = s.failures[:maxFailures:maxFailures]
}

// Finish puts the retained failures in their final deterministic order
// and applies the retention bound. The campaign executor calls it
// after merging; serial users call it before reading Failures.
func (s *ObsSink) Finish() {
	sortTraces(s.failures)
	if len(s.failures) > maxFailures {
		s.failures = s.failures[:maxFailures:maxFailures]
	}
}

// sortTraces orders by (Strategy, VP, Server, Sensitive, Trial) — a
// total order over trial identities, so ties are impossible.
func sortTraces(ts []TrialTrace) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a.Strategy != b.Strategy {
			return a.Strategy < b.Strategy
		}
		if a.VP != b.VP {
			return a.VP < b.VP
		}
		if a.Server != b.Server {
			return a.Server < b.Server
		}
		if a.Sensitive != b.Sensitive {
			return !a.Sensitive
		}
		return a.Trial < b.Trial
	})
}

// Trials returns how many trials the sink absorbed.
func (s *ObsSink) Trials() int { return s.trials }

// Failures returns the retained failing-trial traces (call Finish
// first for the deterministic final set).
func (s *ObsSink) Failures() []TrialTrace { return s.failures }

// Snapshot copies the current counter values.
func (s *ObsSink) Snapshot() obs.Snapshot { return s.Registry.Snapshot() }

// Aggregate summarises the campaign: throughput against wall time and
// the distribution of flight-recorder events per trial. The percentile
// inputs are sorted first, so the result is independent of absorb
// order (serial vs parallel).
func (s *ObsSink) Aggregate(wall time.Duration) obs.Aggregate {
	agg := obs.Aggregate{Trials: s.trials, Wall: wall}
	sorted := append([]int(nil), s.eventsPerTrial...)
	sort.Ints(sorted)
	for _, n := range sorted {
		agg.TotalEvents += uint64(n)
	}
	if wall > 0 {
		agg.TrialsPerSec = float64(s.trials) / wall.Seconds()
	}
	agg.EventsPerTrialP50 = obs.Percentile(sorted, 50)
	agg.EventsPerTrialP99 = obs.Percentile(sorted, 99)
	return agg
}
