package experiment

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// labelCube is a cube of n jobs over the given tally labels: all a
// tracker needs to size itself.
func labelCube(n int, labels ...string) *Cube {
	return &Cube{jobs: make([]trialJob, n), labels: labels}
}

// TestProgressTracker exercises the tracker directly over two shards:
// the snapshot folded from their tallies (labels that repeat across
// tallies counted once, by name), the snapshot math, and the metrics
// rendering.
func TestProgressTracker(t *testing.T) {
	c := labelCube(4, "b", "a", "b")
	shards := []*shardState{newShardState(c, 0, 2, nil), newShardState(c, 2, 4, nil)}
	pt := newProgressTracker(c, shards, nil, ProgressOptions{
		Interval: time.Hour, // never ticks during the test
	})
	shards[0].fold(0, Success)
	shards[0].fold(2, Failure2)
	shards[1].fold(1, Success)

	s := pt.snapshot()
	if s.Done != 3 || s.Total != 4 || s.Success != 2 || s.Failure2 != 1 || s.Shards != nil {
		t.Fatalf("snapshot = %+v", s)
	}
	want := []StrategyProgress{{Strategy: "a", Done: 1, Success: 1}, {Strategy: "b", Done: 2, Success: 1}}
	if !reflect.DeepEqual(s.Strategies, want) {
		t.Fatalf("strategies = %+v, want %+v", s.Strategies, want)
	}

	text := s.MetricsText()
	for _, want := range []string{
		"# TYPE trials_done gauge",
		"# TYPE strategy_success gauge",
		"trials_done 3", "trials_total 4",
		`strategy_success{strategy="b"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	pt.finish()
	// The sampler runs at construction and at finish, so even a
	// never-ticking tracker retains two bracketing samples.
	series := pt.Series()
	if len(series.Points) < 2 {
		t.Fatalf("series has %d points, want >= 2", len(series.Points))
	}
	last := series.Last()
	if last.Values["done"] != 3 || last.Values["success"] != 2 {
		t.Fatalf("closing sample = %+v", last)
	}
}

// TestProgressReplayedTrials: trials a journal restored into a shard
// count toward done, the outcome mix and the label counts, but not
// toward throughput — they were recovered, not run.
func TestProgressReplayedTrials(t *testing.T) {
	c := labelCube(8, "a", "b")
	shards := []*shardState{newShardState(c, 0, 4, nil), newShardState(c, 4, 8, nil)}
	shards[0].cursor, shards[0].tallies[0] = 3, Tally{Success: 2, Failure2: 1, Total: 3}
	pt := newProgressTracker(c, shards, nil, ProgressOptions{Interval: time.Hour})
	defer pt.finish()
	s := pt.snapshot()
	if s.Done != 3 || s.Success != 2 || s.Failure2 != 1 || s.Strategies[0].Done != 3 {
		t.Fatalf("restored snapshot = %+v", s)
	}
	if s.TrialsPerSec != 0 {
		t.Fatalf("replayed trials counted as throughput: %v trials/s", s.TrialsPerSec)
	}
	shards[1].fold(1, Success)
	if s = pt.snapshot(); s.Done != 4 || s.TrialsPerSec <= 0 {
		t.Fatalf("fresh trial not counted: %+v", s)
	}
}

// TestProgressMetricsEscaping: strategy labels carry raw spec text;
// the exposition format escapes exactly backslash, quote, and newline
// and passes non-ASCII through unmodified (%q would corrupt it).
func TestProgressMetricsEscaping(t *testing.T) {
	s := ProgressSnapshot{Strategies: []StrategyProgress{
		{Strategy: `rst(disc="ttl\x")` + "\nπ", Done: 1},
	}}
	text := s.MetricsText()
	want := `strategy_done{strategy="rst(disc=\"ttl\\x\")\nπ"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("metrics missing %q:\n%s", want, text)
	}
}

// TestProgressHTTPUnregistered: this package deliberately never links
// net/http, so asking for the endpoint without importing the
// progresshttp package must degrade to a diagnostic, not a crash or an
// aborted campaign. (The endpoint itself is tested in progresshttp.)
func TestProgressHTTPUnregistered(t *testing.T) {
	if progressServer != nil {
		t.Skip("a progress server is registered in this binary")
	}
	var buf bytes.Buffer
	pt := newProgressTracker(labelCube(1, "a"), nil, nil, ProgressOptions{
		Interval: time.Hour, W: &buf, HTTPAddr: "127.0.0.1:0",
	})
	if pt.Addr() != "" {
		t.Fatalf("endpoint bound without a registered server: %s", pt.Addr())
	}
	if !strings.Contains(buf.String(), "no server registered") {
		t.Fatalf("missing diagnostic, got %q", buf.String())
	}
	pt.finish()
}

// TestCampaignProgress: a campaign with progress enabled reports every
// trial and writes a final summary line, without perturbing results.
func TestCampaignProgress(t *testing.T) {
	scale := Scale{VPs: 2, Servers: 2, Trials: 1}
	var buf bytes.Buffer
	r := NewRunner(42)
	r.Workers = 4
	r.Obs = NewObsSink()
	r.Progress = &ProgressOptions{Interval: time.Hour, W: &buf}
	rows := RunTable1Parallel(r, scale)

	base := NewRunner(42)
	base.Workers = 4
	base.Obs = NewObsSink()
	baseRows := RunTable1Parallel(base, scale)
	for i := range rows {
		if rows[i] != baseRows[i] {
			t.Fatalf("progress reporting changed results: %+v vs %+v", rows[i], baseRows[i])
		}
	}
	line := buf.String()
	if !strings.Contains(line, "progress:") {
		t.Fatalf("no final progress line: %q", line)
	}
	// The final snapshot must account for every job.
	if !strings.Contains(line, "(100%)") {
		t.Fatalf("final line not at 100%%: %q", line)
	}
}

// TestProgressNilSafe: a nil tracker (progress disabled) must be
// inert, while its shards still record every trial.
func TestProgressNilSafe(t *testing.T) {
	var pt *progressTracker
	st := newShardState(labelCube(1, "x"), 0, 1, nil)
	st.fold(0, Success)
	pt.finish()
	if pt.Addr() != "" || len(pt.Series().Points) != 0 {
		t.Fatal("nil tracker has an address or a series")
	}
	if st.cursor != 1 || st.tallies[0] != (Tally{Success: 1, Total: 1}) {
		t.Fatalf("shard after one trial: cursor %d, tally %+v", st.cursor, st.tallies[0])
	}
}
