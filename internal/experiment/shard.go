package experiment

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"intango/internal/core"
	"intango/internal/obs"
)

// The one campaign executor and the shard substrate it shares with
// internal/fleet: a campaign's job cube built once, deterministic
// contiguous shards over it, and a serial range runner with checkpoint
// hooks. Shards accumulate into private tallies and ObsSinks, and every
// fold is commutative — tally addition, registry merge, min-N failure
// retention — so any partition of the cube, run in any order by any
// number of workers, possibly killed and resumed from journaled
// snapshots, folds back to results bit-identical to an uninterrupted
// serial run.

// trialJob is one independent simulation to run.
type trialJob struct {
	vp  VantagePoint
	srv Server
	// censor fills the topology's GFW device slots: a registry name or
	// raw censor-spec text, "" for the calibrated GFW population (see
	// Runner.Censor). A cell that needs another censor carries it here
	// rather than mutating the shared Runner.
	censor    string
	factory   core.Factory
	sensitive bool
	trial     int
	// sink indexes the tally the outcome folds into; that tally's label
	// names the job in progress counters and failure-retention keys.
	sink int
}

// Cube is a campaign's fully enumerated job list plus the tally layout
// the jobs index into: tally i accumulates every job whose sink is i,
// and labels[i] names it. The enumeration order is a pure function of
// the runner's seed and the campaign's parameters, so two processes
// planning the same campaign derive identical cubes — the property
// shard plans and checkpoint cursors depend on. A label plus the job's
// (vantage point, server, sensitive, trial) is its failure-retention
// key, which must be unique within a cube: sortTraces relies on it
// being a total order.
type Cube struct {
	jobs   []trialJob
	labels []string
}

// tally appends a tally slot named label and returns its index.
func (c *Cube) tally(label string) int {
	c.labels = append(c.labels, label)
	return len(c.labels) - 1
}

// Table1Cube enumerates the Table 1 campaign for (r, sc): every
// strategy × vantage point × server × trial, sensitive and clean arms,
// with tallies 2i and 2i+1 holding strategy i's arms (see FoldTable1).
func Table1Cube(r *Runner, sc Scale) *Cube {
	vps := VantagePoints()[:min(sc.VPs, 11)]
	servers := Servers(sc.Servers, r.Cal, r.Seed)
	c := &Cube{}
	for _, spec := range table1Strategies() {
		factory := spec.compile()
		sens, clean := c.tally(spec.name), c.tally(spec.name)
		for _, vp := range vps {
			for _, srv := range servers {
				for trial := 0; trial < sc.Trials; trial++ {
					c.jobs = append(c.jobs,
						trialJob{vp: vp, srv: srv, censor: r.Censor, factory: factory, sensitive: true, trial: trial, sink: sens},
						trialJob{vp: vp, srv: srv, censor: r.Censor, factory: factory, trial: trial + sc.Trials, sink: clean})
				}
			}
		}
	}
	return c
}

// Len returns the number of jobs in the cube.
func (c *Cube) Len() int { return len(c.jobs) }

// NumTallies returns how many tally sinks the cube's jobs index.
func (c *Cube) NumTallies() int { return len(c.labels) }

// TallyLabel returns the label tally index i accumulates for — how a
// restored checkpoint frame's tallies are re-attributed to
// per-strategy progress counters.
func (c *Cube) TallyLabel(i int) string { return c.labels[i] }

// StrategyLabels returns the cube's unique tally labels in campaign
// order.
func (c *Cube) StrategyLabels() []string {
	var out []string
	seen := map[string]bool{}
	for _, l := range c.labels {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}

// ShardBounds cuts jobs [0, total) into n contiguous shards whose sizes
// differ by at most one, the remainder spread over the leading shards:
// shard i covers [b[i], b[i+1]). n is clamped to [1, max(total, 1)] —
// a shard covers at least one job when any exist.
func ShardBounds(total, n int) []int {
	n = max(1, min(n, total))
	b := make([]int, n+1)
	for i := 0; i < n; i++ {
		size := total / n
		if i < total%n {
			size++
		}
		b[i+1] = b[i] + size
	}
	return b
}

// shardsPerWorker is how many contiguous shards the executor cuts per
// worker. Cubes are strategy-major and trial cost varies by strategy,
// so workers pull many small shards from a queue instead of one block
// each: a costly strategy block then cannot idle the other workers at
// the barrier.
const shardsPerWorker = 16

// runCube is the campaign executor. It cuts the cube into contiguous
// shards, runs them through RunCubeRange on r.Workers workers
// (GOMAXPROCS when unset) pulling shards from a queue, and folds the
// shards in index order into the returned tallies and r.Obs. Shards
// get ObsSinks only when r.Obs is attached: an uninstrumented campaign
// stays on the bare trial hot path.
func (r *Runner) runCube(c *Cube) []Tally {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bounds := ShardBounds(len(c.jobs), workers*shardsPerWorker)
	shards := make([]*ShardState, len(bounds)-1)
	for i := range shards {
		var sink *ObsSink
		if r.Obs != nil {
			sink = r.Obs.shard()
		}
		shards[i] = NewShardState(c, bounds[i], bounds[i+1], sink)
	}
	var prog *progressTracker
	var onTrial func(label string, out Outcome)
	if r.Progress != nil {
		prog = newProgressTracker(len(c.jobs), c.labels, *r.Progress)
		r.progressAddr.Store(prog.Addr())
		onTrial = prog.note
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(shards); i = int(next.Add(1) - 1) {
				r.RunCubeRange(c, shards[i], 0, onTrial, nil)
			}
		}()
	}
	wg.Wait()
	if prog != nil {
		prog.finish()
		r.progressSeries = prog.Series()
		r.progressFinal = prog.snapshot()
		r.progressRan = true
	}
	tallies := make([]Tally, len(c.labels))
	for _, st := range shards {
		for i, t := range st.Tallies {
			tallies[i].Merge(t)
		}
		if r.Obs != nil {
			r.Obs.merge(st.Sink)
		}
	}
	if r.Obs != nil {
		r.Obs.Finish()
	}
	return tallies
}

// DefaultCheckpointEvery is how many trials a shard runs between
// checkpoint frames when the coordinator does not override it.
const DefaultCheckpointEvery = 64

// ShardState is the cumulative result of one shard's slice of the cube:
// jobs [Start, End), of which [Start, Cursor) have been folded into
// Tallies and Sink. A fresh shard starts with Cursor == Start; a
// resumed shard restores Cursor, Tallies, and the Sink registry from
// its last checkpoint frame and continues, producing state bit-identical
// to an uninterrupted run of the full range.
type ShardState struct {
	Start, End int
	Cursor     int
	Tallies    []Tally
	// Sink collects the shard's observability; nil runs it
	// uninstrumented.
	Sink *ObsSink
}

// NewShardState returns a fresh state for jobs [start, end) of the
// cube, observed into sink (nil for none).
func NewShardState(c *Cube, start, end int, sink *ObsSink) *ShardState {
	return &ShardState{
		Start: start, End: end, Cursor: start,
		Tallies: make([]Tally, len(c.labels)),
		Sink:    sink,
	}
}

// Restore rehydrates the state from a checkpoint frame's cumulative
// payload: the trial cursor, the tallies, and the serialized registry
// snapshot (folded through the commutative snapshot merge). The
// restored sink counts the replayed trials but retains no failure
// traces or per-trial event volumes — those live only in frames (as
// refs) and in memory.
func (st *ShardState) Restore(cursor int, tallies []Tally, snap obs.Snapshot) error {
	if cursor < st.Start || cursor > st.End {
		return fmt.Errorf("cursor %d outside shard range [%d,%d)", cursor, st.Start, st.End)
	}
	if len(tallies) != len(st.Tallies) {
		return fmt.Errorf("frame carries %d tallies, cube has %d", len(tallies), len(st.Tallies))
	}
	st.Cursor = cursor
	copy(st.Tallies, tallies)
	st.Sink.Registry.MergeSnapshot(snap)
	st.Sink.trials = cursor - st.Start
	return nil
}

// RunCubeRange executes the shard's remaining jobs [st.Cursor, st.End)
// serially, folding each outcome into st. After every `every` completed
// trials — and always after the range's final trial — it calls
// checkpoint with final reporting whether the range is complete;
// checkpoint returning false stops the shard at that frame boundary
// (the coordinator's abort path). onTrial, when non-nil, observes every
// completed trial (live progress counters; it must not block). Within
// a shard execution is strictly serial, so Cursor is always the exact
// resume point.
func (r *Runner) RunCubeRange(c *Cube, st *ShardState, every int, onTrial func(label string, out Outcome), checkpoint func(final bool) bool) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	since := 0
	pool := r.packetPool()
	for st.Cursor < st.End {
		job := &c.jobs[st.Cursor]
		label := c.labels[job.sink]
		out := r.runOne(job, label, st.Sink, pool)
		st.Tallies[job.sink].Add(out)
		st.Cursor++
		since++
		// A trial never blocks, and on a small GOMAXPROCS the GC's
		// fractional mark worker runs only at scheduling points: without
		// this yield each mark phase stretches until async preemption,
		// and every trial meanwhile pays write barriers.
		runtime.Gosched()
		if onTrial != nil {
			onTrial(label, out)
		}
		if checkpoint != nil && (since >= every || st.Cursor == st.End) {
			since = 0
			if !checkpoint(st.Cursor == st.End) {
				return
			}
		}
	}
	if st.Sink != nil {
		st.Sink.Finish()
	}
}

// StrategySpec names one campaign strategy together with its canonical
// spec text — the provenance line a fleet manifest records for it.
type StrategySpec struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}

// Table1StrategySpecs returns the Table 1 strategy set with each spec
// canonicalized through the grammar round trip, in campaign order.
func Table1StrategySpecs() []StrategySpec {
	specs := table1Strategies()
	out := make([]StrategySpec, len(specs))
	for i, s := range specs {
		parsed, err := core.ParseSpec(s.spec)
		if err != nil {
			panic(fmt.Sprintf("experiment: bad table spec %s: %v", s.name, err))
		}
		out[i] = StrategySpec{Name: s.name, Spec: parsed.String()}
	}
	return out
}
