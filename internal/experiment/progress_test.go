package experiment

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// labelCube is a cube of n jobs over the given tally labels: all a
// tracker needs to size itself.
func labelCube(n int, labels ...string) *Cube {
	return &Cube{jobs: make([]trialJob, n), labels: labels}
}

// TestProgressTracker exercises the tracker directly: counters, the
// snapshot math, and the metrics rendering.
func TestProgressTracker(t *testing.T) {
	pt := newProgressTracker(labelCube(4, "a", "b"), nil, ProgressOptions{
		Interval: time.Hour, // never ticks during the test
	})
	pt.note("a", Success)
	pt.note("a", Failure2)
	pt.note("b", Success)

	s := pt.snapshot()
	if s.Done != 3 || s.Total != 4 || s.Success != 2 || s.Failure2 != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if len(s.Strategies) != 2 || s.Strategies[0].Strategy != "a" || s.Strategies[0].Success != 1 {
		t.Fatalf("strategies = %+v", s.Strategies)
	}

	text := s.MetricsText()
	for _, want := range []string{
		"# TYPE trials_done gauge",
		"# TYPE strategy_success gauge",
		"trials_done 3", "trials_total 4",
		`strategy_success{strategy="a"} 1`,
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

// TestProgressReplayedTrials: trials a journal restored count toward
// done, the outcome mix and the label counters, but not toward
// throughput — they were recovered, not run.
func TestProgressReplayedTrials(t *testing.T) {
	j := &journal{replayed: []Tally{{Success: 2, Failure2: 1, Total: 3}, {}}}
	pt := newProgressTracker(labelCube(8, "a", "b"), j, ProgressOptions{Interval: time.Hour})
	defer pt.finish()
	s := pt.snapshot()
	if s.Done != 3 || s.Success != 2 || s.Failure2 != 1 || s.Strategies[0].Done != 3 {
		t.Fatalf("restored snapshot = %+v", s)
	}
	if s.TrialsPerSec != 0 {
		t.Fatalf("replayed trials counted as throughput: %v trials/s", s.TrialsPerSec)
	}
	pt.note("b", Success)
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

// TestProgressNoteOutOfRange: a future Outcome value must not panic
// the tracker; it still counts toward done.
func TestProgressNoteOutOfRange(t *testing.T) {
	pt := newProgressTracker(labelCube(1, "a"), nil, ProgressOptions{Interval: time.Hour})
	pt.note("a", Outcome(99))
	pt.note("a", Outcome(-1))
	pt.finish()
	if s := pt.snapshot(); s.Done != 2 || s.Success != 0 {
		t.Fatalf("snapshot = %+v", s)
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
	pt := newProgressTracker(labelCube(1, "a"), nil, ProgressOptions{
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

// TestProgressNilSafe: a nil tracker (progress disabled) must be inert.
func TestProgressNilSafe(t *testing.T) {
	var pt *progressTracker
	pt.note("x", Success)
	pt.finish()
	if pt.Addr() != "" {
		t.Fatal("nil tracker has an address")
	}
}
