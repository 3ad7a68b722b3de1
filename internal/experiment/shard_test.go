package experiment

import (
	"reflect"
	"testing"

	"intango/internal/core"
)

// TestCubeRangeMatchesParallel: running the whole cube serially through
// the shard range runner reproduces RunTable1Parallel bit for bit —
// rows, tallies, counters, and retained failure traces.
func TestCubeRangeMatchesParallel(t *testing.T) {
	sc := Scale{VPs: 2, Servers: 2, Trials: 1}

	ref := NewRunner(42)
	ref.Workers = 4
	ref.Obs = NewObsSink()
	wantRows := RunTable1Parallel(ref, sc)

	r := NewRunner(42)
	cube := Table1Cube(r, sc)
	st := NewShardState(cube, 0, cube.Len(), NewObsSink())
	checkpoints := 0
	r.RunCubeRange(cube, st, 7, nil, func(final bool) bool {
		checkpoints++
		return true
	})
	if st.Cursor != cube.Len() {
		t.Fatalf("cursor %d, want %d", st.Cursor, cube.Len())
	}
	if checkpoints < cube.Len()/7 {
		t.Fatalf("only %d checkpoints for %d jobs at every=7", checkpoints, cube.Len())
	}
	if gotRows := FoldTable1(st.Tallies); !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("cube range rows differ:\ngot:  %+v\nwant: %+v", gotRows, wantRows)
	}
	if got, want := st.Sink.Snapshot(), ref.Obs.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("cube range snapshot differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	st.Sink.Finish()
	if !reflect.DeepEqual(st.Sink.Failures(), ref.Obs.Failures()) {
		t.Errorf("cube range failure retention differs")
	}
}

// TestCampaignSerialParallelDeterminism: every tally campaign the
// executor runs besides Table 1 (which TestObsSerialParallelDeterminism
// covers) — Table 4, the censor matrix, the §8 ablation and Table 5 —
// gives identical results, a bit-identical full obs snapshot, and
// identical retained failure traces at one worker and at eight.
func TestCampaignSerialParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name     string
		failures bool // whether the campaign has failing trials to retain
		run      func(r *Runner) any
	}{
		{"table4", true, func(r *Runner) any {
			return RunTable4(r, OutsideVantagePoints(), OutsideServers(4, r.Cal, r.Seed), 2)
		}},
		{"matrix", true, func(r *Runner) any { return RunCensorMatrix(r, MatrixCensors(), 2) }},
		{"ablation", true, func(r *Runner) any { return RunAblation(r) }},
		{"table5", false, func(r *Runner) any { return RunTable5(r) }},
	} {
		run := func(workers int) (any, *ObsSink) {
			r := NewRunner(42)
			r.Workers = workers
			r.Obs = NewObsSink()
			return tc.run(r), r.Obs
		}
		serial, obsS := run(1)
		parallel, obsP := run(8)
		if !reflect.DeepEqual(serial, parallel) {
			t.Errorf("%s: results differ:\nserial:   %+v\nparallel: %+v", tc.name, serial, parallel)
		}
		if !reflect.DeepEqual(obsS.Snapshot(), obsP.Snapshot()) {
			t.Errorf("%s: full snapshots differ:\nserial:   %+v\nparallel: %+v", tc.name, obsS.Snapshot(), obsP.Snapshot())
		}
		if !reflect.DeepEqual(obsS.Failures(), obsP.Failures()) {
			t.Errorf("%s: retained failure traces differ", tc.name)
		}
		if obsS.Trials() == 0 || (len(obsS.Failures()) > 0) != tc.failures {
			t.Errorf("%s: %d trials, %d retained failures; check is vacuous", tc.name, obsS.Trials(), len(obsS.Failures()))
		}
	}
}

// TestCubeRetentionKeysDistinct: within every cube the executor runs,
// no two jobs share a failure-retention key (label, vantage point,
// server, sensitive, trial) — the total order sortTraces relies on for
// serial and parallel runs to retain the same failures.
func TestCubeRetentionKeysDistinct(t *testing.T) {
	r := NewRunner(42)
	sc := QuickScale()
	cubes := map[string]*Cube{
		"table1":         Table1Cube(r, sc),
		"table4-inside":  table4Cube(r, VantagePoints(), Servers(sc.Servers, r.Cal, r.Seed), sc.Trials),
		"table4-outside": table4Cube(r, OutsideVantagePoints(), OutsideServers(4, r.Cal, r.Seed), sc.Trials),
	}
	cubes["table5"], _ = table5Cube(r)
	cubes["matrix"], _ = matrixCube(r, MatrixCensors(), 4)
	cubes["ablation"], _ = ablationCube(r)
	type key struct {
		label, vp, srv string
		sensitive      bool
		trial          int
	}
	for name, c := range cubes {
		if c.Len() == 0 {
			t.Errorf("%s: empty cube", name)
		}
		seen := map[key]bool{}
		for _, j := range c.jobs {
			k := key{c.labels[j.sink], j.vp.Name, j.srv.Name, j.sensitive, j.trial}
			if seen[k] {
				t.Errorf("%s: retention key %+v repeats", name, k)
			}
			seen[k] = true
		}
	}
}

// TestShardRestoreResumeEquivalence mirrors one kill/resume cycle at
// the ShardState layer: run to a mid-range checkpoint, serialize the
// frame payload, restore into a fresh state, finish — the result must
// equal an uninterrupted run of the same range.
func TestShardRestoreResumeEquivalence(t *testing.T) {
	sc := Scale{VPs: 2, Servers: 2, Trials: 1}
	r := NewRunner(42)
	cube := Table1Cube(r, sc)
	start, end := cube.Len()/4, 3*cube.Len()/4

	full := NewShardState(cube, start, end, NewObsSink())
	r.RunCubeRange(cube, full, 0, nil, nil)

	// First leg: stop at the first checkpoint past ten trials.
	first := NewShardState(cube, start, end, NewObsSink())
	r2 := NewRunner(42)
	r2.RunCubeRange(cube, first, 10, nil, func(final bool) bool { return false })
	if first.Cursor == start || first.Cursor == end {
		t.Fatalf("first leg stopped at %d of [%d,%d)", first.Cursor, start, end)
	}

	// Frame payload: cursor, tallies, snapshot. Restore and finish.
	resumed := NewShardState(cube, start, end, NewObsSink())
	if err := resumed.Restore(first.Cursor, first.Tallies, first.Sink.Snapshot()); err != nil {
		t.Fatal(err)
	}
	r3 := NewRunner(42)
	r3.RunCubeRange(cube, resumed, 0, nil, nil)

	if !reflect.DeepEqual(resumed.Tallies, full.Tallies) {
		t.Errorf("resumed tallies differ:\ngot:  %+v\nwant: %+v", resumed.Tallies, full.Tallies)
	}
	if got, want := resumed.Sink.Snapshot(), full.Sink.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed snapshot differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	if resumed.Sink.Trials() != full.Sink.Trials() {
		t.Errorf("resumed trials %d, want %d", resumed.Sink.Trials(), full.Sink.Trials())
	}
}

// TestShardRestoreRejectsBadFrames: cursors outside the shard range and
// tally vectors that do not match the cube layout are refused — the
// journal loader quarantines such frames instead of corrupting state.
func TestShardRestoreRejectsBadFrames(t *testing.T) {
	r := NewRunner(42)
	cube := Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	st := NewShardState(cube, 2, 6, NewObsSink())
	if err := st.Restore(1, make([]Tally, cube.NumTallies()), NewObsSink().Snapshot()); err == nil {
		t.Error("cursor below range accepted")
	}
	if err := st.Restore(7, make([]Tally, cube.NumTallies()), NewObsSink().Snapshot()); err == nil {
		t.Error("cursor past range accepted")
	}
	if err := st.Restore(3, make([]Tally, 2), NewObsSink().Snapshot()); err == nil {
		t.Error("short tally vector accepted")
	}
	if err := st.Restore(3, make([]Tally, cube.NumTallies()), NewObsSink().Snapshot()); err != nil {
		t.Errorf("valid frame refused: %v", err)
	}
}

// TestTable1StrategySpecsCanonical: the manifest's provenance lines are
// canonical spec text in campaign order, matching the cube's labels.
func TestTable1StrategySpecsCanonical(t *testing.T) {
	specs := Table1StrategySpecs()
	if len(specs) == 0 {
		t.Fatal("no strategy specs")
	}
	r := NewRunner(42)
	cube := Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	labels := cube.StrategyLabels()
	if len(labels) != len(specs) {
		t.Fatalf("%d cube labels vs %d specs", len(labels), len(specs))
	}
	for i, s := range specs {
		if s.Name != labels[i] {
			t.Errorf("spec %d name %q != cube label %q", i, s.Name, labels[i])
		}
		parsed, err := core.ParseSpec(s.Spec)
		if err != nil {
			t.Errorf("%s: spec does not parse: %v", s.Name, err)
			continue
		}
		if parsed.String() != s.Spec {
			t.Errorf("%s: spec %q not canonical (want %q)", s.Name, s.Spec, parsed.String())
		}
	}
}

// TestFleetDisabledZeroAlloc holds the non-fleet trial to the hot-path
// budget: the shard substrate (cube enumeration, checkpoint hooks,
// restore plumbing) must cost a plain RunOne nothing.
func TestFleetDisabledZeroAlloc(t *testing.T) {
	requireTrialAllocBudget(t, "trial with fleet machinery linked")
}
