package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"intango/internal/obs"
)

// HealthReport is the post-campaign telemetry digest: final outcome
// counts, the sampled throughput curve, per-strategy success, stage
// latency percentiles from the span histograms, packet-pool recycling,
// and reassembly eviction rates. It serializes as health.json and
// renders as health.txt (FormatHealth, golden-tested).
type HealthReport struct {
	Campaign    string  `json:"campaign"`
	Seed        int64   `json:"seed"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`

	Trials     int     `json:"trials"`
	Success    int64   `json:"success"`
	Failure1   int64   `json:"failure_1"`
	Failure2   int64   `json:"failure_2"`
	SuccessPct float64 `json:"success_pct"`

	Strategies []StrategyHealth  `json:"strategies,omitempty"`
	Throughput []ThroughputPoint `json:"throughput,omitempty"`
	Stages     []StageLatency    `json:"stages,omitempty"`
	Goodput    *GoodputHealth    `json:"goodput,omitempty"`
	Evictions  []EvictionRate    `json:"evictions,omitempty"`

	// Shards and Resume are present only for journaled campaigns: the
	// final per-shard rows and the summary of what a resumed run
	// replayed from its checkpoint journal.
	Shards []ShardProgress `json:"shards,omitempty"`
	Resume *ResumeHealth   `json:"resume,omitempty"`

	Pool          PoolHealth `json:"pool"`
	SeriesSamples int        `json:"series_samples"`
	SeriesDropped uint64     `json:"series_dropped,omitempty"`
}

// StrategyHealth is one strategy's slice of the report.
type StrategyHealth struct {
	Strategy   string  `json:"strategy"`
	Done       int64   `json:"done"`
	Success    int64   `json:"success"`
	SuccessPct float64 `json:"success_pct"`
}

// ThroughputPoint is one sample of the campaign throughput curve.
type ThroughputPoint struct {
	T            float64 `json:"t"` // wall seconds since campaign start
	Done         float64 `json:"done"`
	TrialsPerSec float64 `json:"trials_per_sec"`
}

// StageLatency summarises one trial stage's virtual-time histogram.
type StageLatency struct {
	Stage  string  `json:"stage"`
	Count  uint64  `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P99MS  float64 `json:"p99_ms"`
}

// GoodputHealth summarises the goodput.bps histogram — present only
// when the campaign measured goodput (the congestion matrix), absent
// otherwise so existing health artifacts are byte-identical.
type GoodputHealth struct {
	Transfers uint64  `json:"transfers"`
	MeanBps   float64 `json:"mean_bps"`
	P50Bps    uint64  `json:"p50_bps"`
	P90Bps    uint64  `json:"p90_bps"`
}

// ResumeHealth summarises what a resumed journaled campaign recovered
// from its checkpoint directory instead of re-running.
type ResumeHealth struct {
	ResumedShards     int `json:"resumed_shards"`
	CompletedShards   int `json:"completed_shards"`
	ReplayedTrials    int `json:"replayed_trials"`
	QuarantinedFrames int `json:"quarantined_frames,omitempty"`
}

// PoolHealth summarises packet-pool recycling over the campaign.
type PoolHealth struct {
	Gets        uint64  `json:"gets"`
	News        uint64  `json:"news"`
	Recycled    uint64  `json:"recycled"`
	RecycledPct float64 `json:"recycled_pct"`
}

// EvictionRate is one reassembly-eviction counter normalised per trial.
type EvictionRate struct {
	Counter  string  `json:"counter"`
	Count    uint64  `json:"count"`
	PerTrial float64 `json:"per_trial"`
}

// BuildHealthReport assembles the health digest from the runner's
// telemetry after a progress-enabled, observed campaign: the sink's
// registry (stage histograms, eviction counters), the final progress
// snapshot (with, for a journaled campaign, its shard rows and what
// the resume recovered), the sampled time-series, and the packet pool.
// It reads — never resets — the underlying state, so it can be called
// repeatedly.
func (r *Runner) BuildHealthReport(campaign string, wall time.Duration) HealthReport {
	h := HealthReport{
		Campaign:    campaign,
		Seed:        r.Seed,
		Workers:     r.Workers,
		WallSeconds: wall.Seconds(),
	}
	if final, ok := r.FinalProgress(); ok {
		h.Success, h.Failure1, h.Failure2 = final.Success, final.Failure1, final.Failure2
		for _, sp := range final.Strategies {
			sh := StrategyHealth{Strategy: sp.Strategy, Done: sp.Done, Success: sp.Success}
			if sp.Done > 0 {
				sh.SuccessPct = 100 * float64(sp.Success) / float64(sp.Done)
			}
			h.Strategies = append(h.Strategies, sh)
		}
		h.Shards = final.Shards
		h.Resume = resumeHealth(final.Shards)
	}
	series := r.ProgressSeries()
	h.SeriesSamples = len(series.Points)
	h.SeriesDropped = series.Dropped
	for _, p := range series.Points {
		h.Throughput = append(h.Throughput, ThroughputPoint{
			T: p.T, Done: p.Values["done"], TrialsPerSec: p.Values["trials_per_sec"],
		})
	}
	if r.Obs != nil {
		snap := r.Obs.Snapshot()
		h.Trials = r.Obs.Trials()
		h.Stages = stageLatencies(snap)
		if hs, ok := snap.Histograms["goodput.bps"]; ok && hs.Count > 0 {
			h.Goodput = &GoodputHealth{
				Transfers: hs.Count,
				MeanBps:   hs.Mean(),
				P50Bps:    hs.Quantile(0.50),
				P90Bps:    hs.Quantile(0.90),
			}
		}
		h.Evictions = evictionRates(snap, h.Trials)
	} else if final, ok := r.FinalProgress(); ok {
		h.Trials = int(final.Done)
	}
	if h.Trials > 0 {
		h.SuccessPct = 100 * float64(h.Success) / float64(h.Trials)
	}
	ps := r.PoolStats()
	h.Pool = PoolHealth{Gets: ps.Gets, News: ps.News, Recycled: ps.Recycled()}
	if ps.Gets > 0 {
		h.Pool.RecycledPct = 100 * float64(ps.Recycled()) / float64(ps.Gets)
	}
	return h
}

// resumeHealth summarises the resume across shard rows; nil when the
// campaign restored and quarantined nothing.
func resumeHealth(shards []ShardProgress) *ResumeHealth {
	var rh ResumeHealth
	for _, s := range shards {
		if s.Resumed {
			if s.Replayed == s.JobEnd-s.JobStart {
				rh.CompletedShards++
			} else {
				rh.ResumedShards++
			}
			rh.ReplayedTrials += s.Replayed
		}
		rh.QuarantinedFrames += s.Quarantined
	}
	if rh == (ResumeHealth{}) {
		return nil
	}
	return &rh
}

// stageLatencies extracts the "span.*" histograms in a fixed stage
// order (the order the trial runs them), appending any unknown span
// names alphabetically after the known ones.
func stageLatencies(snap obs.Snapshot) []StageLatency {
	ordered := []string{spanBuild, spanHandshake, spanStrategy, spanVerdict, spanTeardown}
	seen := map[string]bool{}
	var out []StageLatency
	add := func(name string) {
		hs, ok := snap.Histograms[name]
		if !ok || seen[name] {
			return
		}
		seen[name] = true
		ms := func(v uint64) float64 { return float64(v) / float64(time.Millisecond) }
		out = append(out, StageLatency{
			Stage:  strings.TrimPrefix(name, "span."),
			Count:  hs.Count,
			MeanMS: hs.Mean() / float64(time.Millisecond),
			P50MS:  ms(hs.Quantile(0.50)),
			P90MS:  ms(hs.Quantile(0.90)),
			P99MS:  ms(hs.Quantile(0.99)),
		})
	}
	for _, name := range ordered {
		add(name)
	}
	for _, name := range sortedSnapshotHistKeys(snap) {
		if strings.HasPrefix(name, "span.") {
			add(name)
		}
	}
	return out
}

func sortedSnapshotHistKeys(snap obs.Snapshot) []string {
	keys := make([]string, 0, len(snap.Histograms))
	for k := range snap.Histograms {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// evictionRates collects every "*.frag-evict" counter (gfw, middlebox,
// tcpstack reassemblers) normalised per trial.
func evictionRates(snap obs.Snapshot, trials int) []EvictionRate {
	var out []EvictionRate
	for _, k := range snap.Keys() {
		if !strings.HasSuffix(k, ".frag-evict") {
			continue
		}
		er := EvictionRate{Counter: k, Count: snap.Counters[k]}
		if trials > 0 {
			er.PerTrial = float64(er.Count) / float64(trials)
		}
		out = append(out, er)
	}
	return out
}

// FormatHealth renders the report as the human-readable health.txt.
// The layout is golden-tested (testdata/health.golden), so format
// changes are deliberate diffs, not drift.
func FormatHealth(h HealthReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== campaign health: %s ==\n", h.Campaign)
	fmt.Fprintf(&b, "seed=%d workers=%d wall=%.2fs\n", h.Seed, h.Workers, h.WallSeconds)
	fmt.Fprintf(&b, "trials: %d  success=%d (%.1f%%)  failure-1=%d  failure-2=%d\n",
		h.Trials, h.Success, h.SuccessPct, h.Failure1, h.Failure2)
	if n := len(h.Throughput); n > 0 {
		first, last := h.Throughput[0], h.Throughput[n-1]
		peak := 0.0
		for _, p := range h.Throughput {
			if p.TrialsPerSec > peak {
				peak = p.TrialsPerSec
			}
		}
		fmt.Fprintf(&b, "throughput: %d samples over %.2fs, last=%.1f peak=%.1f trials/sec",
			h.SeriesSamples, last.T-first.T, last.TrialsPerSec, peak)
		if h.SeriesDropped > 0 {
			fmt.Fprintf(&b, " (%d samples evicted)", h.SeriesDropped)
		}
		b.WriteByte('\n')
	}
	if len(h.Strategies) > 0 {
		b.WriteString("per-strategy success:\n")
		width := 0
		for _, s := range h.Strategies {
			if len(s.Strategy) > width {
				width = len(s.Strategy)
			}
		}
		for _, s := range h.Strategies {
			fmt.Fprintf(&b, "  %-*s %5d/%-5d %5.1f%%\n", width, s.Strategy, s.Success, s.Done, s.SuccessPct)
		}
	}
	if len(h.Stages) > 0 {
		b.WriteString("stage latency (virtual ms):\n")
		fmt.Fprintf(&b, "  %-10s %8s %9s %8s %8s %8s\n", "stage", "count", "mean", "p50", "p90", "p99")
		for _, st := range h.Stages {
			fmt.Fprintf(&b, "  %-10s %8d %9.3f %8.0f %8.0f %8.0f\n",
				st.Stage, st.Count, st.MeanMS, st.P50MS, st.P90MS, st.P99MS)
		}
	}
	if g := h.Goodput; g != nil {
		fmt.Fprintf(&b, "goodput: %d transfers, mean=%.0f bps, p50<=%d p90<=%d (bucket bounds)\n",
			g.Transfers, g.MeanBps, g.P50Bps, g.P90Bps)
	}
	if len(h.Shards) > 0 {
		b.WriteString("shards:\n")
		fmt.Fprintf(&b, "  %4s %-13s %7s %7s %7s %7s %s\n", "id", "state", "jobs", "done", "succ", "frames", "")
		for _, s := range h.Shards {
			note := ""
			if s.Resumed {
				note = "resumed"
			}
			fmt.Fprintf(&b, "  %4d %-13s %7d %7d %7d %7d %s\n",
				s.ID, s.State, s.JobEnd-s.JobStart, s.Done, s.Success, s.Frames, note)
		}
	}
	if r := h.Resume; r != nil {
		fmt.Fprintf(&b, "resume: %d shards replayed complete, %d resumed mid-range, %d trials recovered from checkpoints",
			r.CompletedShards, r.ResumedShards, r.ReplayedTrials)
		if r.QuarantinedFrames > 0 {
			fmt.Fprintf(&b, ", %d frames quarantined", r.QuarantinedFrames)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "packet pool: gets=%d news=%d recycled=%d (%.1f%%)\n",
		h.Pool.Gets, h.Pool.News, h.Pool.Recycled, h.Pool.RecycledPct)
	if len(h.Evictions) > 0 {
		b.WriteString("reassembly evictions:\n")
		for _, e := range h.Evictions {
			fmt.Fprintf(&b, "  %-22s %6d (%.3f/trial)\n", e.Counter, e.Count, e.PerTrial)
		}
	}
	return b.String()
}

// WriteHealthJSON writes the report as indented JSON plus newline.
func WriteHealthJSON(w io.Writer, h HealthReport) error {
	b, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteHealthArtifacts writes health.json and health.txt into dir,
// creating it if needed, and returns the paths written. The pair is
// the campaign's durable telemetry record, sitting next to any causal
// trace bundles from the same run.
func WriteHealthArtifacts(dir string, h HealthReport) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	write := func(name string, emit func(io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		paths = append(paths, path)
		return nil
	}
	if err := write("health.json", func(w io.Writer) error { return WriteHealthJSON(w, h) }); err != nil {
		return nil, err
	}
	if err := write("health.txt", func(w io.Writer) error {
		_, err := io.WriteString(w, FormatHealth(h))
		return err
	}); err != nil {
		return nil, err
	}
	return paths, nil
}

// RunHealthCampaign runs the Table 1 campaign with full telemetry —
// counters, stage spans, progress sampling — and returns the health
// report. It installs an ObsSink and ProgressOptions when the caller
// has not configured them (a fast sampling interval, so even quick
// campaigns catch mid-run points).
func RunHealthCampaign(r *Runner, sc Scale, campaign string) HealthReport {
	if r.Obs == nil {
		r.Obs = NewObsSink()
	}
	if r.Progress == nil {
		r.Progress = &ProgressOptions{Interval: 100 * time.Millisecond}
	}
	start := time.Now()
	RunTable1Parallel(r, sc)
	return r.BuildHealthReport(campaign, time.Since(start))
}
