package experiment

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"intango/internal/packet"
)

// healthFixture is a hand-built report with every section populated,
// so the golden pins the full renderer. Values are arbitrary but
// fixed — including the wall-clock ones, which a live campaign could
// never reproduce byte-for-byte.
func healthFixture() HealthReport {
	return HealthReport{
		Campaign: "table1-quick", Seed: 42, Workers: 4, WallSeconds: 2.5,
		Trials: 616, Success: 500, Failure1: 100, Failure2: 16,
		SuccessPct: 100 * 500.0 / 616.0,
		Strategies: []StrategyHealth{
			{Strategy: "teardown-rst/ttl", Done: 308, Success: 260, SuccessPct: 100 * 260.0 / 308.0},
			{Strategy: "ooo-ipfrag", Done: 308, Success: 240, SuccessPct: 100 * 240.0 / 308.0},
		},
		Throughput: []ThroughputPoint{
			{T: 0, Done: 0, TrialsPerSec: 0},
			{T: 1.0, Done: 280, TrialsPerSec: 280},
			{T: 2.5, Done: 616, TrialsPerSec: 246.4},
		},
		Stages: []StageLatency{
			{Stage: "build", Count: 616, MeanMS: 0, P50MS: 0, P90MS: 0, P99MS: 0},
			{Stage: "handshake", Count: 616, MeanMS: 62.4, P50MS: 50, P90MS: 100, P99MS: 500},
			{Stage: "strategy", Count: 616, MeanMS: 841.7, P50MS: 1000, P90MS: 2000, P99MS: 2000},
			{Stage: "verdict", Count: 616, MeanMS: 903.2, P50MS: 1000, P90MS: 2000, P99MS: 5000},
			{Stage: "teardown", Count: 616, MeanMS: 12.1, P50MS: 10, P90MS: 20, P99MS: 50},
		},
		Goodput: &GoodputHealth{Transfers: 60, MeanBps: 612345.5, P50Bps: 500_000, P90Bps: 1_000_000},
		Evictions: []EvictionRate{
			{Counter: "gfw.frag-evict", Count: 12, PerTrial: 12.0 / 616.0},
		},
		Pool:          PoolHealth{Gets: 40000, News: 1200, Recycled: 38800, RecycledPct: 97.0},
		SeriesSamples: 3,
	}
}

// TestHealthGolden pins FormatHealth byte-for-byte against
// testdata/health.golden.
func TestHealthGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "health.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := FormatHealth(healthFixture())
	if got != string(want) {
		t.Fatalf("health report drifted from golden.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestHealthJSONRoundTrip: the JSON artifact parses back to the same
// report.
func TestHealthJSONRoundTrip(t *testing.T) {
	h := healthFixture()
	dir := t.TempDir()
	paths, err := WriteHealthArtifacts(dir, h)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("artifact paths = %v", paths)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got HealthReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trials != h.Trials || got.Success != h.Success || len(got.Stages) != len(h.Stages) {
		t.Fatalf("round-trip mismatch: %+v", got)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "health.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if string(txt) != FormatHealth(h) {
		t.Fatal("health.txt does not match FormatHealth")
	}
}

// TestHealthCampaign runs a real (tiny) campaign end to end and
// asserts the report carries live telemetry: at least the baseline and
// closing samples, non-empty stage latencies with one observation per
// trial, outcome counts that sum to the trial count, and the written
// artifact pair.
func TestHealthCampaign(t *testing.T) {
	r := NewRunner(42)
	r.Workers = 4
	r.Progress = &ProgressOptions{Interval: time.Millisecond}
	h := RunHealthCampaign(r, Scale{VPs: 2, Servers: 2, Trials: 1}, "health-test")

	if h.Trials == 0 {
		t.Fatal("no trials recorded")
	}
	if h.Success+h.Failure1+h.Failure2 != int64(h.Trials) {
		t.Fatalf("outcomes %d+%d+%d do not sum to trials %d", h.Success, h.Failure1, h.Failure2, h.Trials)
	}
	if h.SeriesSamples < 2 {
		t.Fatalf("series samples = %d, want >= 2", h.SeriesSamples)
	}
	if len(h.Throughput) != h.SeriesSamples {
		t.Fatalf("throughput points = %d, samples = %d", len(h.Throughput), h.SeriesSamples)
	}
	if len(h.Stages) == 0 {
		t.Fatal("no stage latencies")
	}
	for _, st := range h.Stages {
		if st.Stage == "handshake" || st.Stage == "teardown" {
			if st.Count != uint64(h.Trials) {
				t.Fatalf("stage %s count = %d, want %d", st.Stage, st.Count, h.Trials)
			}
		}
	}
	if len(h.Strategies) == 0 {
		t.Fatal("no per-strategy rows")
	}
	switch {
	case h.Pool.Gets == 0:
		t.Fatalf("pool stats missing: %+v", h.Pool)
	case packet.Checked:
		t.Log("the checked build never recycles a packet: recycling not checked")
	case h.Pool.RecycledPct <= 0:
		t.Fatalf("pool recycled nothing: %+v", h.Pool)
	}

	dir := t.TempDir()
	if _, err := WriteHealthArtifacts(dir, h); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "health.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got HealthReport
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Trials != h.Trials {
		t.Fatalf("health.json trials = %d, want %d", got.Trials, h.Trials)
	}
}
