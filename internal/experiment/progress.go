package experiment

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"intango/internal/obs"
)

// ProgressOptions configures live campaign-progress reporting for the
// campaign executor. Reporting only observes atomic counters the
// workers bump — it never touches the trial hot path's determinism.
type ProgressOptions struct {
	// Interval is how often a snapshot line is emitted (default 1s).
	Interval time.Duration
	// W receives the periodic snapshot lines (typically os.Stderr);
	// nil disables printing.
	W io.Writer
	// HTTPAddr, when non-empty, serves live progress over HTTP:
	// /progress returns the snapshot as JSON, /metrics as
	// expvar-style plain text. Use "127.0.0.1:0" for an ephemeral
	// port; the bound address is available via Runner.ProgressAddr
	// while the campaign runs. Serving requires a registered server
	// (import the progresshttp subpackage); without one the option is
	// reported on W and ignored.
	HTTPAddr string
	// SeriesCap bounds the sampled time-series ring (default
	// obs.DefaultSeriesCap). The sampler records one point per
	// Interval; when full the oldest points are dropped.
	SeriesCap int
}

// StrategyProgress is the per-strategy slice of a snapshot.
type StrategyProgress struct {
	Strategy string `json:"strategy"`
	Done     int64  `json:"done"`
	Success  int64  `json:"success"`
}

// ProgressSnapshot is one point-in-time view of a running campaign.
type ProgressSnapshot struct {
	Done         int64              `json:"done"`
	Total        int64              `json:"total"`
	TrialsPerSec float64            `json:"trials_per_sec"`
	ETASeconds   float64            `json:"eta_seconds"`
	Success      int64              `json:"success"`
	Failure1     int64              `json:"failure_1"`
	Failure2     int64              `json:"failure_2"`
	Strategies   []StrategyProgress `json:"strategies,omitempty"`
	// Shards is present only for a journaled campaign: one row per
	// shard of the checkpoint plan.
	Shards []ShardProgress `json:"shards,omitempty"`
}

// MetricsText renders the snapshot in Prometheus exposition format —
// the /metrics view of the progress endpoint. Strategy labels carry
// raw spec text (quotes, backslashes, arbitrary UTF-8), so they go
// through obs.PromLabel rather than %q: Go quoting escapes non-ASCII,
// which the exposition format forbids, and real scrapers reject it.
// Each family is emitted contiguously under one # TYPE header, as the
// format requires. A journaled campaign's snapshot adds the shard
// rollups and the shard-labelled families.
func (s ProgressSnapshot) MetricsText() string {
	var b strings.Builder
	gauge := func(name, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
	}
	gauge("trials_done", "Trials completed so far.")
	fmt.Fprintf(&b, "trials_done %d\n", s.Done)
	gauge("trials_total", "Trials in the campaign.")
	fmt.Fprintf(&b, "trials_total %d\n", s.Total)
	gauge("trials_per_sec", "Campaign throughput.")
	fmt.Fprintf(&b, "trials_per_sec %g\n", s.TrialsPerSec)
	gauge("eta_seconds", "Estimated seconds to completion.")
	fmt.Fprintf(&b, "eta_seconds %g\n", s.ETASeconds)
	gauge("outcome_success", "Trials classified success.")
	fmt.Fprintf(&b, "outcome_success %d\n", s.Success)
	gauge("outcome_failure1", "Trials classified failure-1.")
	fmt.Fprintf(&b, "outcome_failure1 %d\n", s.Failure1)
	gauge("outcome_failure2", "Trials classified failure-2.")
	fmt.Fprintf(&b, "outcome_failure2 %d\n", s.Failure2)
	if len(s.Strategies) > 0 {
		gauge("strategy_done", "Trials completed per strategy.")
		for _, sp := range s.Strategies {
			fmt.Fprintf(&b, "strategy_done{strategy=\"%s\"} %d\n", obs.PromLabel(sp.Strategy), sp.Done)
		}
		gauge("strategy_success", "Successful trials per strategy.")
		for _, sp := range s.Strategies {
			fmt.Fprintf(&b, "strategy_success{strategy=\"%s\"} %d\n", obs.PromLabel(sp.Strategy), sp.Success)
		}
	}
	if len(s.Shards) > 0 {
		shardsDone := 0
		for _, sh := range s.Shards {
			if sh.State == stateDone {
				shardsDone++
			}
		}
		gauge("fleet_shards", "Shards in the checkpoint plan.")
		fmt.Fprintf(&b, "fleet_shards %d\n", len(s.Shards))
		gauge("fleet_shards_done", "Shards that completed their job range.")
		fmt.Fprintf(&b, "fleet_shards_done %d\n", shardsDone)
		gauge("shard_done", "Trials completed per shard.")
		for _, sh := range s.Shards {
			fmt.Fprintf(&b, "shard_done{shard=\"%d\"} %d\n", sh.ID, sh.Done)
		}
		gauge("shard_success", "Successful trials per shard.")
		for _, sh := range s.Shards {
			fmt.Fprintf(&b, "shard_success{shard=\"%d\"} %d\n", sh.ID, sh.Success)
		}
		gauge("shard_cursor", "Absolute next-job cursor per shard.")
		for _, sh := range s.Shards {
			fmt.Fprintf(&b, "shard_cursor{shard=\"%d\"} %d\n", sh.ID, sh.Cursor)
		}
		gauge("shard_frames", "Checkpoint frames journaled per shard.")
		for _, sh := range s.Shards {
			fmt.Fprintf(&b, "shard_frames{shard=\"%d\"} %d\n", sh.ID, sh.Frames)
		}
		gauge("shard_last_frame_age_seconds", "Seconds since the shard last journaled a frame.")
		for _, sh := range s.Shards {
			if sh.Frames > 0 {
				fmt.Fprintf(&b, "shard_last_frame_age_seconds{shard=\"%d\"} %g\n", sh.ID, sh.LastFrameAgeSec)
			}
		}
		gauge("shard_state", "Shard state machine (1 = current state).")
		for _, sh := range s.Shards {
			fmt.Fprintf(&b, "shard_state{shard=\"%d\",state=\"%s\"} 1\n", sh.ID, obs.PromLabel(sh.State))
		}
	}
	return b.String()
}

// ProgressFeeds bundles the live views a progress server exposes:
// Snapshot for the current campaign state (/progress, /metrics, and
// /shards), Series for the sampled curves (/timeseries), and — only
// when a checkpoint journal is attached — Manifest, whose presence
// also enables /shards and /manifest.
type ProgressFeeds struct {
	Snapshot func() ProgressSnapshot
	Series   func() SeriesView
	Manifest func() Manifest
}

// SeriesView is the /timeseries payload: the campaign's sampled curve
// plus, for a journaled campaign, each shard's checkpoint-stitched
// curve keyed by shard ID.
type SeriesView struct {
	obs.TimeSeriesSnapshot
	Shards map[string]obs.TimeSeriesSnapshot `json:"shards,omitempty"`
}

// progressServer, when registered, serves live snapshots over HTTP.
// It lives behind a hook (see RegisterProgressServer) so this package
// never imports net/http: the http package's init-time heap globals
// would otherwise be marked by every GC cycle of every program linking
// the experiment harness, which is measurable on the trial hot path.
var progressServer func(feeds ProgressFeeds, diag io.Writer, addr string) (stop func(), bound string)

// RegisterProgressServer installs the HTTP serving implementation used
// when ProgressOptions.HTTPAddr is set. The progresshttp subpackage
// registers itself from init; programs that want the endpoint import
// it, everything else stays free of net/http.
func RegisterProgressServer(f func(feeds ProgressFeeds, diag io.Writer, addr string) (stop func(), bound string)) {
	progressServer = f
}

// labelCounters is one tally label's counters. The map of labels is
// built complete before workers start, so workers only ever do atomic
// increments — no locks, no map writes on the hot path.
type labelCounters struct {
	done, success atomic.Int64
}

// progressTracker accumulates campaign progress across workers.
type progressTracker struct {
	total    int64
	start    time.Time
	done     atomic.Int64
	outcomes [numOutcomes]atomic.Int64
	labels   map[string]*labelCounters
	names    []string // sorted labels
	series   *obs.TimeSeries
	// journal, when set, supplies the per-shard rows and the manifest;
	// replayed counts the trials it restored, which count toward done
	// but not toward throughput.
	journal  *journal
	replayed int64

	opts    ProgressOptions
	stop    chan struct{}
	wg      chan struct{}
	stopSrv func()
	addr    string
}

// newProgressTracker sizes the tracker for cube c's jobs and labels
// (repeats are counted once), seeds it with whatever journal j
// restored, and starts the sampler ticker and optional HTTP endpoint.
func newProgressTracker(c *Cube, j *journal, opts ProgressOptions) *progressTracker {
	t := &progressTracker{
		total:   int64(len(c.jobs)),
		start:   time.Now(),
		labels:  map[string]*labelCounters{},
		series:  obs.NewTimeSeries(opts.SeriesCap),
		journal: j,
		opts:    opts,
		stop:    make(chan struct{}),
		wg:      make(chan struct{}),
	}
	for _, l := range c.labels {
		if _, ok := t.labels[l]; !ok {
			t.labels[l] = &labelCounters{}
			t.names = append(t.names, l)
		}
	}
	sort.Strings(t.names)
	if j != nil {
		for i, tl := range j.replayed {
			lc := t.labels[c.labels[i]]
			lc.done.Add(int64(tl.Total))
			lc.success.Add(int64(tl.Success))
			t.done.Add(int64(tl.Total))
			t.outcomes[Success].Add(int64(tl.Success))
			t.outcomes[Failure1].Add(int64(tl.Failure1))
			t.outcomes[Failure2].Add(int64(tl.Failure2))
		}
		t.replayed = t.done.Load()
	}
	t.sample() // t=0 baseline; finish() adds the closing sample
	if opts.HTTPAddr != "" {
		t.serveHTTP(opts.HTTPAddr)
	}
	interval := opts.Interval
	if interval <= 0 {
		interval = time.Second
	}
	go t.loop(interval)
	return t
}

// note records one finished trial. Called from worker goroutines. An
// out-of-range outcome (a future Outcome value this tracker predates)
// still counts toward done; it must never panic a live campaign.
func (t *progressTracker) note(label string, out Outcome) {
	if t == nil {
		return
	}
	t.done.Add(1)
	if out >= 0 && int(out) < len(t.outcomes) {
		t.outcomes[out].Add(1)
	}
	if lc := t.labels[label]; lc != nil {
		lc.done.Add(1)
		if out == Success {
			lc.success.Add(1)
		}
	}
}

// sample appends one time-series point from the current snapshot. The
// sampler is the one place in the telemetry stack allowed to read the
// wall clock; everything inside a trial is stamped with virtual time.
func (t *progressTracker) sample() {
	s := t.snapshot()
	t.series.Append(obs.SeriesPoint{
		T: time.Since(t.start).Seconds(),
		Values: map[string]float64{
			"done":           float64(s.Done),
			"total":          float64(s.Total),
			"success":        float64(s.Success),
			"failure_1":      float64(s.Failure1),
			"failure_2":      float64(s.Failure2),
			"trials_per_sec": s.TrialsPerSec,
		},
	})
}

// Series returns the sampled window so far.
func (t *progressTracker) Series() obs.TimeSeriesSnapshot {
	if t == nil {
		return obs.TimeSeriesSnapshot{}
	}
	return t.series.Snapshot()
}

// seriesView assembles the /timeseries payload: the campaign curve
// plus every journaled shard's curve.
func (t *progressTracker) seriesView() SeriesView {
	v := SeriesView{TimeSeriesSnapshot: t.Series()}
	if t.journal != nil {
		v.Shards = map[string]obs.TimeSeriesSnapshot{}
		for _, row := range t.journal.rows {
			v.Shards[strconv.Itoa(row.p.ID)] = row.series.Snapshot()
		}
	}
	return v
}

// snapshot assembles the current view.
func (t *progressTracker) snapshot() ProgressSnapshot {
	done := t.done.Load()
	s := ProgressSnapshot{
		Done: done, Total: t.total,
		Success:  t.outcomes[Success].Load(),
		Failure1: t.outcomes[Failure1].Load(),
		Failure2: t.outcomes[Failure2].Load(),
	}
	elapsed := time.Since(t.start).Seconds()
	if elapsed > 0 {
		s.TrialsPerSec = float64(done-t.replayed) / elapsed
	}
	if s.TrialsPerSec > 0 && done < t.total {
		s.ETASeconds = float64(t.total-done) / s.TrialsPerSec
	}
	for _, name := range t.names {
		lc := t.labels[name]
		s.Strategies = append(s.Strategies, StrategyProgress{
			Strategy: name, Done: lc.done.Load(), Success: lc.success.Load(),
		})
	}
	if t.journal != nil {
		now := time.Now()
		for _, row := range t.journal.rows {
			s.Shards = append(s.Shards, row.snapshot(now))
		}
	}
	return s
}

// Line renders a one-line human summary of a snapshot (the periodic
// progress line).
func (s ProgressSnapshot) Line() string {
	pct := 0.0
	if s.Total > 0 {
		pct = 100 * float64(s.Done) / float64(s.Total)
	}
	out := fmt.Sprintf("progress: %d/%d (%.0f%%) %.1f trials/s S=%d F1=%d F2=%d",
		s.Done, s.Total, pct, s.TrialsPerSec, s.Success, s.Failure1, s.Failure2)
	if s.ETASeconds > 0 {
		out += fmt.Sprintf(" eta=%s", (time.Duration(s.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return out
}

func (t *progressTracker) loop(interval time.Duration) {
	defer close(t.wg)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			t.sample()
			if t.opts.W != nil {
				fmt.Fprintln(t.opts.W, t.snapshot().Line())
			}
		case <-t.stop:
			return
		}
	}
}

// serveHTTP binds the progress endpoint through the registered server.
// An unregistered server or a bind failure is reported on W (when set)
// and otherwise ignored: progress reporting must never abort a
// campaign.
func (t *progressTracker) serveHTTP(addr string) {
	if progressServer == nil {
		if t.opts.W != nil {
			fmt.Fprintln(t.opts.W, "progress: http endpoint unavailable: no server registered (import the progresshttp package)")
		}
		return
	}
	feeds := ProgressFeeds{Snapshot: t.snapshot, Series: t.seriesView}
	if t.journal != nil {
		feeds.Manifest = func() Manifest { return t.journal.manifest }
	}
	t.stopSrv, t.addr = progressServer(feeds, t.opts.W, addr)
}

// finish stops the ticker and endpoint and emits the final snapshot.
// The closing sample runs before the endpoint stops, so every campaign
// — however short — serves at least two points (the t=0 baseline and
// this one) and the retained series always ends at the final counts.
func (t *progressTracker) finish() {
	if t == nil {
		return
	}
	close(t.stop)
	<-t.wg
	t.sample()
	if t.stopSrv != nil {
		t.stopSrv()
	}
	if t.opts.W != nil {
		fmt.Fprintln(t.opts.W, t.snapshot().Line())
	}
}

// Addr returns the bound HTTP endpoint address ("" when none).
func (t *progressTracker) Addr() string {
	if t == nil {
		return ""
	}
	return t.addr
}

// Shard states — the /shards state machine: pending → running →
// checkpointed (stopped at a frame boundary, or restored mid-range) →
// done, or failed when the shard's journal cannot be written.
const (
	statePending      = "pending"
	stateRunning      = "running"
	stateCheckpointed = "checkpointed"
	stateDone         = "done"
	stateFailed       = "failed"
)

// ShardProgress is one journaled shard's live row: where it is in the
// state machine, its trial cursor, how stale its last checkpoint frame
// is, and what its resume recovered. Done includes replayed trials.
type ShardProgress struct {
	ShardPlan
	State   string `json:"state"`
	Cursor  int    `json:"cursor"`
	Done    int64  `json:"done"`
	Success int64  `json:"success"`
	Frames  int    `json:"frames"`
	// LastFrameAgeSec is seconds since the shard last journaled a
	// frame; absent until the first frame.
	LastFrameAgeSec float64 `json:"last_frame_age_sec,omitempty"`
	// Resumed marks a shard restored from a checkpoint frame covering
	// Replayed trials; Quarantined counts the damaged journal lines
	// set aside on the way.
	Resumed     bool   `json:"resumed,omitempty"`
	Replayed    int    `json:"replayed,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	Error       string `json:"error,omitempty"`
}

// shardRow is the live state behind one ShardProgress: counters the
// shard's worker bumps per trial, the row's other fields and frame
// bookkeeping, and the shard's checkpoint-stitched curve — all read
// concurrently by scrapers.
type shardRow struct {
	done, success atomic.Int64 // include replayed trials

	mu        sync.Mutex    // guards p and lastFrame
	p         ShardProgress // Cursor, Done and Success filled at snapshot
	lastFrame time.Time

	series *obs.TimeSeries
	// tOffset continues a restored curve: new samples are stamped after
	// its last point.
	tOffset float64
}

func newShardRow(plan ShardPlan, seriesCap int) *shardRow {
	return &shardRow{p: ShardProgress{ShardPlan: plan, State: statePending}, series: obs.NewTimeSeries(seriesCap)}
}

// note counts one finished trial of the shard.
func (row *shardRow) note(out Outcome) {
	row.done.Add(1)
	if out == Success {
		row.success.Add(1)
	}
}

// resume seeds the row from the frame its shard was restored from: the
// replayed trials count as done, and the frame's curve is stitched in
// with its original timestamps, so /timeseries crosses the kill point
// without a gap or reset.
func (row *shardRow) resume(f *frame, frames int) {
	row.mu.Lock()
	defer row.mu.Unlock()
	replayed, success := f.Cursor-row.p.JobStart, 0
	for _, t := range f.Tallies {
		success += t.Success
	}
	row.done.Store(int64(replayed))
	row.success.Store(int64(success))
	for _, p := range f.Series.Points {
		row.series.Append(p)
	}
	row.tOffset = f.Series.Last().T
	row.p.Resumed, row.p.Replayed, row.p.Frames = true, replayed, frames
	row.p.State = stateCheckpointed
	if f.Cursor == row.p.JobEnd {
		row.p.State = stateDone
	}
}

// sample appends the shard's curve point at st's current cut, stamped
// with wall seconds since the shard's run started (after tOffset).
func (row *shardRow) sample(st *shardState, start time.Time) {
	var t Tally
	for _, x := range st.tallies {
		t.Merge(x)
	}
	row.series.Append(obs.SeriesPoint{
		T: row.tOffset + time.Since(start).Seconds(),
		Values: map[string]float64{
			"cursor":    float64(st.cursor),
			"done":      float64(t.Total),
			"success":   float64(t.Success),
			"failure_1": float64(t.Failure1),
			"failure_2": float64(t.Failure2),
		},
	})
}

// update applies f to the row's guarded fields.
func (row *shardRow) update(f func(p *ShardProgress)) {
	row.mu.Lock()
	f(&row.p)
	row.mu.Unlock()
}

// framed records one journaled frame.
func (row *shardRow) framed() {
	row.mu.Lock()
	row.p.Frames++
	row.lastFrame = time.Now()
	row.mu.Unlock()
}

// snapshot copies the row for /shards, /progress and the health report.
func (row *shardRow) snapshot(now time.Time) ShardProgress {
	row.mu.Lock()
	defer row.mu.Unlock()
	s := row.p
	s.Done, s.Success = row.done.Load(), row.success.Load()
	s.Cursor = s.JobStart + int(s.Done)
	if s.Frames > 0 {
		s.LastFrameAgeSec = now.Sub(row.lastFrame).Seconds()
	}
	return s
}
