// Package obs is the unified observability layer for the simulation
// stack: named counters aggregated across trials, and a fixed-size
// per-trial "flight recorder" of structured trace events that turns a
// bare Success/Failure-1/Failure-2 outcome into a causal event log —
// the instrumentation the paper's §3.4/§8 failure-attribution
// methodology needs.
//
// Design constraints, in order:
//
//   - Disabled must be free. Every subsystem holds a nil *Obs by
//     default; all methods are nil-receiver safe, so the disabled hot
//     path costs one branch and zero allocations. Callers that build
//     detail strings guard with an explicit nil check first.
//   - Deterministic. Trace timestamps are virtual (the simulation
//     clock), never wall time, so traces are bit-identical across
//     serial and parallel runs of the same seed. Counters are plain
//     additions, so any merge order yields the same totals.
//   - No contention. Counters are atomic, and the experiment runner
//     shards one Registry per worker, merging after the barrier —
//     instrumentation never adds a lock to the trial hot path.
//
// The package depends only on the standard library.
package obs

// Obs bundles the two halves of per-trial observability: a Registry of
// counters and a flight-recorder Recorder. Subsystems hold a *Obs that
// is nil when observability is disabled.
type Obs struct {
	reg *Registry
	rec *Recorder
}

// New bundles a registry and recorder. Either may be nil to enable only
// half of the instrumentation.
func New(reg *Registry, rec *Recorder) *Obs {
	return &Obs{reg: reg, rec: rec}
}

// Registry returns the counter registry (nil when disabled).
func (o *Obs) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Recorder returns the flight recorder (nil when disabled).
func (o *Obs) Recorder() *Recorder {
	if o == nil {
		return nil
	}
	return o.rec
}

// Count increments the named counter by one. Safe on a nil receiver.
func (o *Obs) Count(name string) {
	if o == nil {
		return
	}
	o.reg.Add(name, 1)
}

// Trace records one flight-recorder event. Safe on a nil receiver.
func (o *Obs) Trace(subsys, verb string, seq uint32, flags uint8, detail string) {
	if o == nil {
		return
	}
	o.rec.Record(subsys, verb, seq, flags, detail)
}

// TracePkt records one flight-recorder event keyed to the causal
// lineage: pkt is the wire ID of the packet the event concerns, parent
// the ID of the packet that caused it. Safe on a nil receiver.
func (o *Obs) TracePkt(subsys, verb string, pkt, parent uint32, seq uint32, flags uint8, detail string) {
	if o == nil {
		return
	}
	o.rec.RecordPkt(subsys, verb, pkt, parent, seq, flags, detail)
}
