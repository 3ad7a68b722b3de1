package experiment

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"intango/internal/obs"
)

// The checkpoint journal the campaign executor drives: per-shard JSONL
// frames (frame.go) under a provenance manifest (manifest.go) in one
// checkpoint directory, so a campaign killed mid-run resumes from that
// directory with results bit-identical to an uninterrupted serial run.

// ErrStopped is returned (wrapped) when a journaled campaign was stopped
// at a frame boundary before completing — by the OnFrame hook. The
// checkpoint directory holds every journaled frame; rerunning the same
// cube over it resumes from them.
var ErrStopped = errors.New("campaign stopped before completion")

// CheckpointOptions configures the checkpoint journal. The zero value
// journals nothing: RunCube then runs the cube exactly as the table
// campaigns do.
type CheckpointOptions struct {
	// Dir is the checkpoint directory. Frames are journaled there and a
	// prior run's journals are resumed from there. Empty disables
	// journaling.
	Dir string
	// Shards is how many contiguous shards a journaled run cuts the
	// cube into (default 8, clamped to the job count). The manifest
	// records the plan, so it never depends on the worker count.
	Shards int
	// CheckpointEvery is trials between frames (default
	// DefaultCheckpointEvery).
	CheckpointEvery int
	// OnFrame, when non-nil, observes every journaled frame (shard that
	// cut it, total frames journaled campaign-wide). A non-nil error
	// stops the campaign at the next frame boundary — the in-process
	// stand-in for kill -9 that the kill/resume tests and fleet-smoke
	// build on.
	OnFrame func(shard, totalFrames int) error
}

// CubeResult is the deterministic result document of a cube run:
// byte-identical for the same cube and seed whatever the worker count,
// shard plan, or kill/resume history, and exactly what WriteJSON
// serializes for golden comparison. The Table 1 document folds its
// tallies into the paper's rows; every other cube's document names its
// tallies with the manifest's labels.
type CubeResult struct {
	Campaign string       `json:"campaign"`
	Seed     int64        `json:"seed"`
	Scale    Scale        `json:"scale"`
	Trials   int          `json:"trials"`
	Rows     []Table1Row  `json:"rows,omitempty"`
	Labels   []string     `json:"labels,omitempty"`
	Tallies  []Tally      `json:"tallies"`
	Obs      obs.Snapshot `json:"obs"`
	Failures []FailureRef `json:"failures"`
}

// WriteJSON writes the result document as indented JSON — the artifact
// fleet-smoke diffs between an interrupted-and-resumed campaign and an
// uninterrupted reference run.
func (res *CubeResult) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// RunCube runs cube c through the campaign executor and returns its
// result document, read from r.Obs (attached fresh when nil). With
// opts.Dir set the run is journaled: the directory's manifest must
// match the cube (or is written when absent), each shard resumes from
// its journal's last valid frame, damaged journals are quarantined,
// and every shard journals a cumulative frame each CheckpointEvery
// trials and at the end of its range. The live progress tracker then
// runs too (with r.Progress's options when set), reading per-shard
// rows that BuildHealthReport turns into shard and resume sections.
func (r *Runner) RunCube(c *Cube, opts CheckpointOptions) (*CubeResult, error) {
	if r.Obs == nil {
		r.Obs = NewObsSink()
	}
	var j *journal
	if opts.Dir != "" {
		var err error
		if j, err = r.openJournal(c, opts); err != nil {
			return nil, err
		}
	}
	tallies, err := r.runCube(c, j)
	if err != nil {
		return nil, err
	}
	res := &CubeResult{
		Campaign: c.name, Seed: r.Seed, Scale: c.scale,
		Trials: r.Obs.Trials(), Tallies: tallies,
		Obs: r.Obs.Snapshot(), Failures: refsFromTraces(r.Obs.Failures()),
	}
	if c.name == table1Campaign {
		res.Rows = FoldTable1(tallies)
	} else {
		res.Labels = c.labels
	}
	return res, nil
}

// journal is one journaled run's checkpoint state: the directory and
// cadence, the manifest and its shard plan, and the campaign-wide stop.
type journal struct {
	dir     string
	every   int
	onFrame func(shard, totalFrames int) error
	// diag, the progress writer when set, takes quarantine diagnostics.
	diag     io.Writer
	manifest Manifest
	bounds   []int
	frames   atomic.Int64

	mu  sync.Mutex // guards err
	err error
}

// openJournal plans c's shards, reconciles the checkpoint directory's
// manifest with the cube, and returns the journal runCube drives.
func (r *Runner) openJournal(c *Cube, opts CheckpointOptions) (*journal, error) {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = DefaultCheckpointEvery
	}
	// The fingerprint covers the plan, so a directory only ever resumes
	// under the bounds its manifest records.
	bounds := shardBounds(len(c.jobs), opts.Shards)
	m, err := r.manifest(c, bounds)
	if err != nil {
		return nil, err
	}
	m.Started = time.Now().UTC().Format(time.RFC3339)
	if err := reconcileManifest(opts.Dir, &m); err != nil {
		return nil, err
	}
	j := &journal{dir: opts.Dir, every: opts.CheckpointEvery, onFrame: opts.OnFrame, manifest: m, bounds: bounds}
	if r.Progress != nil {
		j.diag = r.Progress.W
	}
	return j, nil
}

// restore gives every shard its progress row and replays its journal
// into its state and row: a shard whose last valid frame ends its range
// is done, one with a partial frame resumes at its cursor, and a
// journal with damaged lines is quarantined — the shard restarts from
// its last good frame, re-journaled at once, or from scratch when none
// survives.
func (j *journal) restore(c *Cube, shards []*shardState) error {
	for id, st := range shards {
		row := newShardRow(ShardPlan{ID: id, JobStart: st.start, JobEnd: st.end})
		st.row = row
		last, frames, quarantined, err := journalLoad(j.dir, c.name, id, st.start, st.end, len(c.labels))
		if err != nil {
			return fmt.Errorf("shard %d journal: %w", id, err)
		}
		if quarantined > 0 {
			if err := quarantineJournal(j.dir, id); err != nil {
				return fmt.Errorf("shard %d quarantine: %w", id, err)
			}
			if j.diag != nil {
				fmt.Fprintf(j.diag, "checkpoint: shard %d: %d damaged journal lines quarantined\n", id, quarantined)
			}
			if last != nil {
				// A done shard never re-runs, so its surviving frame must
				// be journaled now to outlive the quarantine.
				w, err := openJournalWriter(j.dir, id, last)
				if err == nil {
					err = w.close()
				}
				if err != nil {
					return fmt.Errorf("shard %d re-journal: %w", id, err)
				}
			}
		}
		row.p.Quarantined = quarantined
		if last == nil {
			continue
		}
		st.restore(last)
		row.resume(last, frames)
	}
	return nil
}

// run executes one shard's remaining range on the worker's arena a,
// journaling a frame every j.every trials and at the end of the range,
// and reports whether the worker should pull another shard (false once
// the journal stopped).
func (j *journal) run(r *Runner, c *Cube, st *shardState, id int, a *arena) bool {
	if j.stopped() != nil {
		return false
	}
	if st.cursor == st.end {
		return true
	}
	w, err := openJournalWriter(j.dir, id, nil)
	if err != nil {
		j.fail(st, id, err)
		return false
	}
	st.update(func(p *ShardProgress) { p.State = stateRunning })
	start := time.Now()
	r.runCubeRange(c, st, a, j.every, func(final bool) bool {
		// Terminal sample first, so the frame's series ends exactly at
		// this cut — a resumed /timeseries curve has no gap at a kill.
		st.row.sample(st, start)
		st.sink.Finish() // the min-N failure set, in retention order
		f := &frame{
			Version: FrameVersion, Campaign: c.name, Shard: id,
			Cursor: st.cursor, Final: final,
			Tallies:  st.tallies,
			Obs:      st.sink.Snapshot(),
			Failures: refsFromTraces(st.sink.Failures()),
			Series:   st.row.series.Snapshot(),
		}
		if err := w.append(f); err != nil {
			j.fail(st, id, err)
			return false
		}
		st.framed()
		if j.onFrame != nil {
			if err := j.onFrame(id, int(j.frames.Add(1))); err != nil {
				j.stop(fmt.Errorf("%w: %v (checkpoints retained in %s)", ErrStopped, err, j.dir))
			}
		}
		return j.stopped() == nil
	})
	if err := w.close(); err != nil {
		j.fail(st, id, err)
	}
	st.update(func(p *ShardProgress) {
		switch {
		case p.State == stateFailed:
		case st.cursor == st.end:
			p.State = stateDone
		default: // stopped at a frame boundary
			p.State = stateCheckpointed
		}
	})
	return j.stopped() == nil
}

// stop records the campaign's first stop cause; workers finish the
// frame in hand and pull no further shards.
func (j *journal) stop(err error) {
	j.mu.Lock()
	if j.err == nil {
		j.err = err
	}
	j.mu.Unlock()
}

// stopped returns the stop cause, nil while the campaign runs.
func (j *journal) stopped() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// fail marks shard st, index id, failed and stops the campaign with
// its error.
func (j *journal) fail(st *shardState, id int, err error) {
	st.update(func(p *ShardProgress) { p.State, p.Error = stateFailed, err.Error() })
	j.stop(fmt.Errorf("checkpoint: shard %d: %w", id, err))
}
