package experiment

import (
	"fmt"
	"io"
	"sort"
	"strings"
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
}

// MetricsText renders the snapshot in Prometheus exposition format —
// the /metrics view of the progress endpoint. Strategy labels carry
// raw spec text (quotes, backslashes, arbitrary UTF-8), so they go
// through obs.PromLabel rather than %q: Go quoting escapes non-ASCII,
// which the exposition format forbids, and real scrapers reject it.
// Each family is emitted contiguously under one # TYPE header, as the
// format requires.
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
	return b.String()
}

// ProgressFeeds bundles the live views a progress server exposes:
// Snapshot for the current campaign state (/progress, /metrics) and
// Series for the sampled time-series window (/timeseries).
type ProgressFeeds struct {
	Snapshot func() ProgressSnapshot
	Series   func() obs.TimeSeriesSnapshot
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

// stratCounters is one strategy's counters. The map of strategies is
// built complete before workers start, so workers only ever do atomic
// increments — no locks, no map writes on the hot path.
type stratCounters struct {
	done, success atomic.Int64
}

// progressTracker accumulates campaign progress across workers.
type progressTracker struct {
	total    int64
	start    time.Time
	done     atomic.Int64
	outcomes [numOutcomes]atomic.Int64
	strats   map[string]*stratCounters
	names    []string // sorted strategy labels
	series   *obs.TimeSeries

	opts    ProgressOptions
	stop    chan struct{}
	wg      chan struct{}
	stopSrv func()
	addr    string
}

// newProgressTracker sizes the tracker for total jobs under the given
// labels (known up-front; repeats are counted once) and starts the
// sampler ticker and optional HTTP endpoint.
func newProgressTracker(total int, labels []string, opts ProgressOptions) *progressTracker {
	t := &progressTracker{
		total:  int64(total),
		start:  time.Now(),
		strats: map[string]*stratCounters{},
		series: obs.NewTimeSeries(DefaultSeriesCap(opts)),
		opts:   opts,
		stop:   make(chan struct{}),
		wg:     make(chan struct{}),
	}
	for _, l := range labels {
		if _, ok := t.strats[l]; !ok {
			t.strats[l] = &stratCounters{}
			t.names = append(t.names, l)
		}
	}
	sort.Strings(t.names)
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

// DefaultSeriesCap resolves the sample-ring capacity for opts (the
// obs default unless overridden).
func DefaultSeriesCap(opts ProgressOptions) int {
	if opts.SeriesCap > 0 {
		return opts.SeriesCap
	}
	return obs.DefaultSeriesCap
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
	if sc := t.strats[label]; sc != nil {
		sc.done.Add(1)
		if out == Success {
			sc.success.Add(1)
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
		s.TrialsPerSec = float64(done) / elapsed
	}
	if s.TrialsPerSec > 0 && done < t.total {
		s.ETASeconds = float64(t.total-done) / s.TrialsPerSec
	}
	for _, name := range t.names {
		sc := t.strats[name]
		s.Strategies = append(s.Strategies, StrategyProgress{
			Strategy: name, Done: sc.done.Load(), Success: sc.success.Load(),
		})
	}
	return s
}

// Line renders a one-line human summary of a snapshot (the periodic
// progress line; the fleet coordinator reuses it for its own ticker).
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
	t.stopSrv, t.addr = progressServer(ProgressFeeds{Snapshot: t.snapshot, Series: t.Series}, t.opts.W, addr)
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
