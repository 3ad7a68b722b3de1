package experiment

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"

	"intango/internal/obs"
)

// ProgressOptions configures live campaign-progress reporting for the
// campaign executor. Reporting only reads the shards' tallies and
// cursors — it never touches the trial hot path's determinism.
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

// progressTracker serves live views of a running campaign. It keeps no
// counters of its own: every snapshot folds the shards' tallies and
// cursors, so the live views always agree with each other and with the
// result document the same shards fold into.
type progressTracker struct {
	total  int64
	start  time.Time
	shards []*shardState
	// names are the cube's distinct tally labels, sorted; tally i
	// counts toward names[label[i]] (labels repeat across tallies).
	names []string
	label []int
	// replayed counts the trials the journal restored, which count
	// toward done but not toward throughput.
	replayed int64
	// series samples the campaign once per Interval, dropping its
	// oldest points past obs.DefaultSeriesCap.
	series *obs.TimeSeries
	// journal, when set, supplies the manifest, and its shards carry
	// rows.
	journal *journal

	opts    ProgressOptions
	stop    chan struct{}
	wg      chan struct{}
	stopSrv func()
	addr    string
}

// newProgressTracker observes cube c's shards, after journal j (when
// set) restored them, and starts the sampler ticker and optional HTTP
// endpoint.
func newProgressTracker(c *Cube, shards []*shardState, j *journal, opts ProgressOptions) *progressTracker {
	t := &progressTracker{
		total:   int64(len(c.jobs)),
		start:   time.Now(),
		shards:  shards,
		names:   slices.Clone(c.labels),
		label:   make([]int, len(c.labels)),
		series:  obs.NewTimeSeries(obs.DefaultSeriesCap),
		journal: j,
		opts:    opts,
		stop:    make(chan struct{}),
		wg:      make(chan struct{}),
	}
	slices.Sort(t.names)
	t.names = slices.Compact(t.names)
	for i, l := range c.labels {
		t.label[i], _ = slices.BinarySearch(t.names, l)
	}
	// No worker runs yet, so the restored cursors are read unlocked.
	for _, st := range shards {
		t.replayed += int64(st.cursor - st.start)
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
		for id, st := range t.shards {
			v.Shards[strconv.Itoa(id)] = st.row.series.Snapshot()
		}
	}
	return v
}

// snapshot assembles the current view. It reads each shard once, under
// the shard's lock, and derives the totals, the label counts and the
// shard's row from that one read, so in every snapshot done and success
// agree across the totals, the strategies and the shards.
func (t *progressTracker) snapshot() ProgressSnapshot {
	s := ProgressSnapshot{Total: t.total, Strategies: make([]StrategyProgress, len(t.names))}
	for i, name := range t.names {
		s.Strategies[i].Strategy = name
	}
	now := time.Now()
	for _, st := range t.shards {
		var sum Tally
		st.mu.Lock()
		for i, tl := range st.tallies {
			sum.Merge(tl)
			sp := &s.Strategies[t.label[i]]
			sp.Done += int64(tl.Total)
			sp.Success += int64(tl.Success)
		}
		if st.row != nil {
			s.Shards = append(s.Shards, st.row.progress(now, st.cursor, sum))
		}
		st.mu.Unlock()
		s.Done += int64(sum.Total)
		s.Success += int64(sum.Success)
		s.Failure1 += int64(sum.Failure1)
		s.Failure2 += int64(sum.Failure2)
	}
	elapsed := time.Since(t.start).Seconds()
	if elapsed > 0 {
		s.TrialsPerSec = float64(s.Done-t.replayed) / elapsed
	}
	if s.TrialsPerSec > 0 && s.Done < t.total {
		s.ETASeconds = float64(t.total-s.Done) / s.TrialsPerSec
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

// shardRow is a journaled shard's checkpoint bookkeeping, hung off its
// shardState: the row's journal fields (state, frames, resume,
// quarantine, error), when it last journaled a frame, and its
// checkpoint-stitched curve. The shard's mu guards p and lastFrame; a
// snapshot takes the row's cursor, done and success from the shard.
type shardRow struct {
	p         ShardProgress
	lastFrame time.Time

	series *obs.TimeSeries
	// tOffset continues a restored curve: new samples are stamped after
	// its last point.
	tOffset float64
}

func newShardRow(plan ShardPlan) *shardRow {
	return &shardRow{p: ShardProgress{ShardPlan: plan, State: statePending}, series: obs.NewTimeSeries(obs.DefaultSeriesCap)}
}

// resume records the frame the row's shard was restored from, before
// any worker or tracker reads the shard: the frame's curve is stitched
// in with its original timestamps, so /timeseries crosses the kill
// point without a gap or reset.
func (row *shardRow) resume(f *frame, frames int) {
	for _, p := range f.Series.Points {
		row.series.Append(p)
	}
	row.tOffset = f.Series.Last().T
	row.p.Resumed, row.p.Replayed, row.p.Frames = true, f.Cursor-row.p.JobStart, frames
	row.p.State = stateCheckpointed
	if f.Cursor == row.p.JobEnd {
		row.p.State = stateDone
	}
}

// sample appends the shard's curve point at st's current cut, stamped
// with wall seconds since the shard's run started (after tOffset). It
// runs on the shard's worker, which may read st unlocked.
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

// progress renders the row for /shards, /progress and the health
// report, with the shard's cursor and tally sum read under its lock.
func (row *shardRow) progress(now time.Time, cursor int, sum Tally) ShardProgress {
	s := row.p
	s.Cursor, s.Done, s.Success = cursor, int64(sum.Total), int64(sum.Success)
	if s.Frames > 0 {
		s.LastFrameAgeSec = now.Sub(row.lastFrame).Seconds()
	}
	return s
}

// update applies f to the shard's row under the shard's lock.
func (st *shardState) update(f func(p *ShardProgress)) {
	st.mu.Lock()
	f(&st.row.p)
	st.mu.Unlock()
}

// framed records one journaled frame on the shard's row.
func (st *shardState) framed() {
	st.mu.Lock()
	st.row.p.Frames++
	st.row.lastFrame = time.Now()
	st.mu.Unlock()
}
