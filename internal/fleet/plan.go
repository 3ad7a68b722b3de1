// Package fleet lifts a campaign past one process: a shard coordinator
// that splits the (VP × server × strategy × trial-range) job cube into
// deterministic contiguous shards, runs them across worker goroutines,
// journals each shard's progress as incremental checkpoint frames, and
// folds the shards back through the commutative obs/tally merges — so a
// campaign killed mid-run resumes from its checkpoint directory with
// merged results bit-identical to an uninterrupted serial run.
//
// The fleet is observable as one object while it runs: /shards (the
// per-shard state machine), aggregated /progress, /metrics (Prometheus
// exposition with a shard label), /timeseries (per-shard curves
// stitched across kills), and /manifest (the provenance document tying
// every artifact to the exact specs that produced it). Serving requires
// a registered server — import internal/experiment/progresshttp.
package fleet

import "intango/internal/experiment"

// ShardPlan is one shard's deterministic slice of the campaign job
// cube: jobs [JobStart, JobEnd) of the canonical enumeration.
type ShardPlan struct {
	ID       int `json:"id"`
	JobStart int `json:"job_start"`
	JobEnd   int `json:"job_end"`
}

// Jobs returns how many jobs the shard covers.
func (p ShardPlan) Jobs() int { return p.JobEnd - p.JobStart }

// Plan is the full shard decomposition of one campaign — a pure
// function of (campaign, seed, scale, shard count), so a resuming
// process re-derives the identical plan and checkpoint cursors stay
// meaningful.
type Plan struct {
	Campaign  string           `json:"campaign"`
	Seed      int64            `json:"seed"`
	Scale     experiment.Scale `json:"scale"`
	TotalJobs int              `json:"total_jobs"`
	Shards    []ShardPlan      `json:"shards"`
}

// PlanShards splits total jobs into n contiguous shards, spreading the
// remainder over the leading shards so sizes differ by at most one. n
// is clamped to [1, total] (a shard must cover at least one job when
// any exist).
func PlanShards(total, n int) []ShardPlan {
	b := experiment.ShardBounds(total, n)
	out := make([]ShardPlan, len(b)-1)
	for i := range out {
		out[i] = ShardPlan{ID: i, JobStart: b[i], JobEnd: b[i+1]}
	}
	return out
}
