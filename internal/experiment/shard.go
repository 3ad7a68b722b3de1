package experiment

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"intango/internal/core"
)

// The one campaign executor: a campaign's job cube built once,
// deterministic contiguous shards over it, and a serial range runner
// with checkpoint hooks that the checkpoint journal (journal.go)
// drives. Shards accumulate into private tallies and ObsSinks, and
// every fold is commutative — tally addition, registry merge, min-N
// failure retention — so any partition of the cube, run in any order
// by any number of workers, possibly killed and resumed from journaled
// frames, folds back to results bit-identical to an uninterrupted
// serial run.

// trialJob is one independent simulation to run. It points at its
// vantage point and server in the slices its cube was built from
// instead of holding copies, which keeps a job at 64 bytes
// (TestTrialJobSize): a cube holds one job per trial. The executor
// hands them to runOne beside the job; a one-shot job (Runner.job)
// leaves them nil.
type trialJob struct {
	vp  *VantagePoint
	srv *Server
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
	// name identifies the campaign in checkpoint frames, the manifest
	// and the result document; scale is recorded beside it (zero for
	// cubes whose size is fixed).
	name   string
	scale  Scale
	jobs   []trialJob
	labels []string
	// specs are the distinct strategies the jobs run, in cube order,
	// with their canonical spec text — the manifest's provenance lines.
	specs []StrategySpec
}

// table1Campaign names the Table 1 cube, whose result document folds
// its tallies into the paper's rows.
const table1Campaign = "table1"

// tally appends a tally slot named label and returns its index.
func (c *Cube) tally(label string) int {
	c.labels = append(c.labels, label)
	return len(c.labels) - 1
}

// strategy resolves the strategy called name for the cube's jobs and
// records it for the manifest: ref is its spec text, or "" for the
// registered strategy of that name.
func (c *Cube) strategy(name, ref string) core.Factory {
	f, canon := mustResolve(name, ref)
	if !slices.ContainsFunc(c.specs, func(s StrategySpec) bool { return s.Name == name }) {
		c.specs = append(c.specs, StrategySpec{Name: name, Spec: canon})
	}
	return f
}

// mustResolve resolves a campaign table's strategy called name — ref
// is its spec text, or "" for the registered strategy of that name —
// to its factory and canonical spec text. The tables are compile-time
// data, so an entry that does not resolve is a bug and panics.
func mustResolve(name, ref string) (core.Factory, string) {
	f, canon, err := core.ResolveStrategy(cmp.Or(ref, name))
	if err != nil {
		panic(fmt.Sprintf("experiment: strategy %s: %v", name, err))
	}
	return f, canon
}

// Table1Cube enumerates the Table 1 campaign for (r, sc): every
// strategy × vantage point × server × trial, sensitive and clean arms,
// with tallies 2i and 2i+1 holding strategy i's arms (see FoldTable1).
func Table1Cube(r *Runner, sc Scale) *Cube {
	vps := VantagePoints()[:min(sc.VPs, 11)]
	servers := Servers(sc.Servers, r.Cal, r.Seed)
	c := &Cube{name: table1Campaign, scale: sc}
	for _, spec := range table1Strategies() {
		factory := c.strategy(spec.name, "")
		sens, clean := c.tally(spec.name), c.tally(spec.name)
		for vi := range vps {
			vp := &vps[vi]
			for si := range servers {
				srv := &servers[si]
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

// shardBounds cuts jobs [0, total) into n contiguous shards whose sizes
// differ by at most one, the remainder spread over the leading shards:
// shard i covers [b[i], b[i+1]). n is clamped to [1, max(total, 1)] —
// a shard covers at least one job when any exist.
func shardBounds(total, n int) []int {
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

// runCube is the campaign executor, the one loop that schedules cube
// shards. It cuts the cube into contiguous shards — the journal's plan
// when j is set (so a resume derives the same plan on any machine),
// else shardsPerWorker per worker — runs them through runCubeRange on
// r.Workers workers (GOMAXPROCS when unset) pulling shards from a
// queue, and folds the shards in index order into the returned tallies
// and r.Obs. Each worker recycles one arena across every shard it
// pulls, not one per shard, so its simulator's queue storage grows
// once per cube. Shards get ObsSinks only when r.Obs is attached
// (always for a journaled run: RunCube attaches one, as frames carry
// each shard's snapshot), and the progress tracker, which reads the
// shards' tallies and cursors, runs only when r.Progress or a journal
// asks for it: an uninstrumented campaign stays on the bare trial hot
// path. A journal restores each shard from its last frame and journals
// new ones; once it stops (ErrStopped, or a failed write) workers pull
// no more shards and runCube returns the stop error.
func (r *Runner) runCube(c *Cube, j *journal) ([]Tally, error) {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	bounds := shardBounds(len(c.jobs), workers*shardsPerWorker)
	if j != nil {
		bounds = j.bounds
	}
	shards := make([]*shardState, len(bounds)-1)
	for i := range shards {
		var sink *ObsSink
		if r.Obs != nil {
			sink = NewObsSink() // folded into r.Obs after the barrier
		}
		shards[i] = newShardState(c, bounds[i], bounds[i+1], sink)
	}
	if j != nil {
		if err := j.restore(c, shards); err != nil {
			return nil, err
		}
	}
	var prog *progressTracker
	if r.Progress != nil || j != nil {
		var opts ProgressOptions
		if r.Progress != nil {
			opts = *r.Progress
		}
		prog = newProgressTracker(c, shards, j, opts)
		r.progressAddr.Store(prog.Addr())
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(shards)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := r.newArena()
			for i := int(next.Add(1) - 1); i < len(shards); i = int(next.Add(1) - 1) {
				if j == nil {
					r.runCubeRange(c, shards[i], a, 0, nil)
				} else if !j.run(r, c, shards[i], i, a) {
					return
				}
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
	if j != nil {
		if err := j.stopped(); err != nil {
			return nil, err
		}
	}
	tallies := make([]Tally, len(c.labels))
	for _, st := range shards {
		for i, t := range st.tallies {
			tallies[i].Merge(t)
		}
		if r.Obs != nil {
			r.Obs.merge(st.sink)
		}
	}
	if r.Obs != nil {
		r.Obs.Finish()
	}
	return tallies, nil
}

// DefaultCheckpointEvery is how many trials a journaled shard runs
// between checkpoint frames when CheckpointOptions does not override
// it.
const DefaultCheckpointEvery = 64

// shardState is the cumulative result of one shard's slice of the
// cube: jobs [start, end), of which [start, cursor) have been folded
// into tallies and sink. A fresh shard starts with cursor == start; a
// resumed shard restores cursor, tallies, and the sink from its last
// checkpoint frame and continues, producing state bit-identical to an
// uninterrupted run of the full range. Cursor and tallies are the
// campaign's only per-trial record: live progress reads them too.
type shardState struct {
	start, end int
	// mu guards cursor, tallies and row's fields against the progress
	// tracker's readers. Once the workers start, the shard's worker is
	// their only writer: it takes mu around each write and reads them
	// without it. (restore writes them before any worker or tracker.)
	mu      sync.Mutex
	cursor  int
	tallies []Tally
	// sink collects the shard's observability; nil runs it
	// uninstrumented.
	sink *ObsSink
	// row is a journaled shard's checkpoint bookkeeping (see shardRow);
	// nil when the run is unjournaled.
	row *shardRow
}

// newShardState returns a fresh state for jobs [start, end) of the
// cube, observed into sink (nil for none).
func newShardState(c *Cube, start, end int, sink *ObsSink) *shardState {
	return &shardState{
		start: start, end: end, cursor: start,
		tallies: make([]Tally, len(c.labels)),
		sink:    sink,
	}
}

// fold records the trial at the shard's cursor, whose outcome out
// counts toward tally sink, and advances the cursor.
func (st *shardState) fold(sink int, out Outcome) {
	st.mu.Lock()
	st.tallies[sink].Add(out)
	st.cursor++
	st.mu.Unlock()
}

// yieldEvery is how much work a campaign worker does between yields
// to the scheduler (see runCubeRange): a few dozen trials.
const yieldEvery = time.Millisecond

// runCubeRange executes the shard's remaining jobs [st.cursor, st.end)
// serially on arena a, folding each outcome into st. After every
// `every` completed trials — and always after the range's final trial
// — it calls checkpoint with final reporting whether the range is
// complete; checkpoint returning false stops the shard at that frame
// boundary (the journal's stop path). Within a shard execution is
// strictly serial, so cursor is always the exact resume point.
func (r *Runner) runCubeRange(c *Cube, st *shardState, a *arena, every int, checkpoint func(final bool) bool) {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	since := 0
	yielded := time.Now()
	for st.cursor < st.end {
		job := &c.jobs[st.cursor]
		st.fold(job.sink, r.runOne(job, job.vp, job.srv, c.labels[job.sink], st.sink, a))
		since++
		// A trial never blocks, and on a small GOMAXPROCS the GC's
		// fractional mark worker runs only at scheduling points: without
		// a yield a mark phase stretches until async preemption (10 ms),
		// and every trial meanwhile pays write barriers. Trials on a
		// warmed arena do not allocate, so cycles are rare, and a yield
		// per yieldEvery of work gives the worker a scheduling point a
		// few times per mark phase; a yield per trial costs ~10 % of it.
		if now := time.Now(); now.Sub(yielded) >= yieldEvery {
			runtime.Gosched()
			yielded = now
		}
		if checkpoint != nil && (since >= every || st.cursor == st.end) {
			since = 0
			if !checkpoint(st.cursor == st.end) {
				return
			}
		}
	}
	if st.sink != nil {
		st.sink.Finish()
	}
}

// StrategySpec names one campaign strategy together with its canonical
// spec text — the provenance line a checkpoint manifest records for it.
type StrategySpec struct {
	Name string `json:"name"`
	Spec string `json:"spec"`
}
