package experiment

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"intango/internal/core"
)

// TestTrialJobSize pins a job at 64 bytes: it points at its vantage
// point and server instead of holding copies (272 bytes), so the
// paper-scale Table 1 cube of 1,270,500 jobs takes 81 MB, not 329 MB.
func TestTrialJobSize(t *testing.T) {
	if n := unsafe.Sizeof(trialJob{}); n > 64 {
		t.Fatalf("trialJob is %d bytes, want at most 64", n)
	}
}

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
	st := newShardState(cube, 0, len(cube.jobs), NewObsSink())
	checkpoints := 0
	r.runCubeRange(cube, st, r.newArena(), 7, func(final bool) bool {
		checkpoints++
		return true
	})
	if st.cursor != len(cube.jobs) {
		t.Fatalf("cursor %d, want %d", st.cursor, len(cube.jobs))
	}
	if checkpoints < len(cube.jobs)/7 {
		t.Fatalf("only %d checkpoints for %d jobs at every=7", checkpoints, len(cube.jobs))
	}
	if gotRows := FoldTable1(st.tallies); !reflect.DeepEqual(gotRows, wantRows) {
		t.Errorf("cube range rows differ:\ngot:  %+v\nwant: %+v", gotRows, wantRows)
	}
	if got, want := st.sink.Snapshot(), ref.Obs.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("cube range snapshot differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	st.sink.Finish()
	if !reflect.DeepEqual(st.sink.Failures(), ref.Obs.Failures()) {
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
		if len(c.jobs) == 0 {
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
// the shard-state layer: run to a mid-range checkpoint, cut the frame
// payload, restore it into a fresh state, finish — the result must
// equal an uninterrupted run of the same range, retained failures
// included.
func TestShardRestoreResumeEquivalence(t *testing.T) {
	sc := Scale{VPs: 2, Servers: 2, Trials: 1}
	r := NewRunner(42)
	cube := Table1Cube(r, sc)
	start, end := len(cube.jobs)/4, 3*len(cube.jobs)/4

	full := newShardState(cube, start, end, NewObsSink())
	r.runCubeRange(cube, full, r.newArena(), 0, nil)

	// First leg: stop at the first checkpoint past ten trials.
	first := newShardState(cube, start, end, NewObsSink())
	r2 := NewRunner(42)
	r2.runCubeRange(cube, first, r2.newArena(), 10, func(final bool) bool { return false })
	if first.cursor == start || first.cursor == end {
		t.Fatalf("first leg stopped at %d of [%d,%d)", first.cursor, start, end)
	}

	// Frame payload: cursor, tallies, snapshot, failure refs.
	first.sink.Finish()
	f := &frame{
		Version: FrameVersion, Campaign: cube.name, Cursor: first.cursor,
		Tallies: first.tallies, Obs: first.sink.Snapshot(),
		Failures: refsFromTraces(first.sink.Failures()),
	}
	if !f.valid(cube.name, 0, start, end, len(cube.labels)) {
		t.Fatal("honest frame refused")
	}
	resumed := newShardState(cube, start, end, NewObsSink())
	resumed.restore(f)
	// The resumed leg lands on an arena that has already run another
	// shard, as a resumed shard may under the executor.
	r3 := NewRunner(42)
	a3 := r3.newArena()
	r3.runCubeRange(cube, newShardState(cube, 0, start, nil), a3, 0, nil)
	r3.runCubeRange(cube, resumed, a3, 0, nil)

	if !reflect.DeepEqual(resumed.tallies, full.tallies) {
		t.Errorf("resumed tallies differ:\ngot:  %+v\nwant: %+v", resumed.tallies, full.tallies)
	}
	if got, want := resumed.sink.Snapshot(), full.sink.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed snapshot differs:\ngot:  %+v\nwant: %+v", got, want)
	}
	if resumed.sink.Trials() != full.sink.Trials() {
		t.Errorf("resumed trials %d, want %d", resumed.sink.Trials(), full.sink.Trials())
	}
	if got, want := refsFromTraces(resumed.sink.Failures()), refsFromTraces(full.sink.Failures()); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed failure set differs:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestShardRestoreRejectsBadFrames: frames that cannot resume their
// shard — a cursor outside the range, a tally vector that does not
// match the cube layout, tallies that do not account for the cursor,
// an early final frame, a failure ref with no failing outcome — are
// refused; the journal loader quarantines such frames instead of
// corrupting state.
func TestShardRestoreRejectsBadFrames(t *testing.T) {
	r := NewRunner(42)
	cube := Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	n := len(cube.labels)
	// Shard 1 is jobs [2, 6); at cursor 3 it has run one trial.
	valid := func() *frame {
		f := &frame{Version: FrameVersion, Campaign: cube.name, Shard: 1, Cursor: 3, Tallies: make([]Tally, n)}
		f.Tallies[1] = Tally{Success: 1, Total: 1}
		return f
	}
	for _, tc := range []struct {
		name string
		edit func(f *frame)
	}{
		{"version", func(f *frame) { f.Version = 99 }},
		{"campaign", func(f *frame) { f.Campaign = "ablation" }},
		{"shard", func(f *frame) { f.Shard = 0 }},
		{"cursor below range", func(f *frame) { f.Cursor = 1 }},
		{"cursor past range", func(f *frame) { f.Cursor = 7 }},
		{"early final", func(f *frame) { f.Final = true }},
		{"short tally vector", func(f *frame) { f.Tallies = f.Tallies[:2] }},
		{"tallies exceed cursor", func(f *frame) { f.Tallies[0] = Tally{Success: 1000, Total: 1000} }},
		{"tallies short of cursor", func(f *frame) { f.Tallies[1] = Tally{} }},
		{"outcomes miss total", func(f *frame) { f.Tallies[1] = Tally{Total: 1} }},
		{"negative outcome", func(f *frame) { f.Tallies[1] = Tally{Success: 2, Failure1: -1, Total: 1} }},
		{"overflowing outcomes", func(f *frame) {
			f.Tallies[1] = Tally{Success: math.MaxInt, Failure1: math.MaxInt, Failure2: 3, Total: 1}
		}},
		{"unknown outcome ref", func(f *frame) { f.Failures = []FailureRef{{Strategy: "none", Outcome: "bogus"}} }},
		{"success ref", func(f *frame) { f.Failures = []FailureRef{{Strategy: "none", Outcome: "success"}} }},
	} {
		f := valid()
		tc.edit(f)
		if f.valid(cube.name, 1, 2, 6, n) {
			t.Errorf("%s: frame accepted", tc.name)
		}
	}
	f := valid()
	f.Failures = []FailureRef{{Strategy: "none", Outcome: "failure-2"}}
	if !f.valid(cube.name, 1, 2, 6, n) {
		t.Error("valid frame refused")
	}
}

// TestTable1StrategySpecsCanonical: the manifest's provenance lines are
// canonical spec text in campaign order, matching the cube's labels.
func TestTable1StrategySpecsCanonical(t *testing.T) {
	r := NewRunner(42)
	cube := Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
	m, err := r.manifest(cube, shardBounds(len(cube.jobs), 2))
	if err != nil {
		t.Fatal(err)
	}
	specs := m.Strategies
	if len(specs) == 0 || 2*len(specs) != len(m.Labels) {
		t.Fatalf("%d strategy specs for %d labels", len(specs), len(m.Labels))
	}
	for i, s := range specs {
		if s.Name != m.Labels[2*i] {
			t.Errorf("spec %d name %q != cube label %q", i, s.Name, m.Labels[2*i])
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

// TestFleetDisabledZeroAlloc holds the unjournaled trial to the
// hot-path budget: the checkpoint journal (cube enumeration, checkpoint
// hooks, restore plumbing) must cost a plain RunOne nothing.
func TestFleetDisabledZeroAlloc(t *testing.T) {
	requireTrialAllocBudget(t, "trial with the checkpoint journal linked")
}
