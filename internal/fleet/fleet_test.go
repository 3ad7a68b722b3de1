// Package fleet holds the end-to-end checkpoint/resume drills of the
// campaign executor's journal (experiment.Runner.RunCube with a
// checkpoint directory): uninterrupted, killed, double-killed,
// quarantined and garbage-journal runs of two cubes — Table 1 and the
// §8 ablation — each byte-compared with the same cube run unjournaled,
// and Table 1 also with the committed testdata/fleet.golden. The
// package has no non-test code.
package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"intango/internal/experiment"
	"intango/internal/obs"
)

// goldenScale is the Table 1 drill's shape: small enough that the full
// cube runs in well under a second, large enough that every shard
// journals several frames before finishing.
func goldenScale() experiment.Scale { return experiment.Scale{VPs: 2, Servers: 2, Trials: 1} }

const goldenSeed = 42

// cube builds one drill cube for a runner.
type cube func(r *experiment.Runner) *experiment.Cube

// cubes are the cubes every kill/resume drill runs over.
var cubes = []struct {
	name string
	make cube
}{
	{"table1", func(r *experiment.Runner) *experiment.Cube { return experiment.Table1Cube(r, goldenScale()) }},
	{"ablation", experiment.AblationCube},
}

// forEachCube runs drill as one subtest per cube, handing it the cube
// and its unjournaled reference document.
func forEachCube(t *testing.T, drill func(t *testing.T, mk cube, want []byte)) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	for _, c := range cubes {
		t.Run(c.name, func(t *testing.T) { drill(t, c.make, reference(t, c.make)) })
	}
}

func encode(t *testing.T, res *experiment.CubeResult) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// reference runs the cube unjournaled through the campaign executor at
// one worker with an obs sink attached — the independent reference
// every journaled history must match byte for byte.
func reference(t *testing.T, mk cube) []byte {
	t.Helper()
	r := experiment.NewRunner(goldenSeed)
	r.Workers = 1
	r.Obs = experiment.NewObsSink()
	res, err := r.RunCube(mk(r), experiment.CheckpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, res)
}

// run runs a journaled campaign to completion on two workers and
// returns its document and runner (whose final progress and health
// report describe the run).
func run(t *testing.T, mk cube, opts experiment.CheckpointOptions) ([]byte, *experiment.Runner) {
	t.Helper()
	r := experiment.NewRunner(goldenSeed)
	r.Workers = 2
	res, err := r.RunCube(mk(r), opts)
	if err != nil {
		t.Fatal(err)
	}
	return encode(t, res), r
}

// drillOptions is the kill/resume drills' journal: four shards, a
// frame every five trials.
func drillOptions(dir string) experiment.CheckpointOptions {
	return experiment.CheckpointOptions{Dir: dir, Shards: 4, CheckpointEvery: 5}
}

// kill starts a journaled campaign and stops it via the OnFrame hook
// after `after` journaled frames — the in-process stand-in for kill -9
// at a frame boundary. It returns only after the run has unwound.
func kill(t *testing.T, mk cube, dir string, after int) {
	t.Helper()
	opts := drillOptions(dir)
	opts.OnFrame = func(_, total int) error {
		if total >= after {
			return errors.New("kill drill")
		}
		return nil
	}
	r := experiment.NewRunner(goldenSeed)
	r.Workers = 2
	if _, err := r.RunCube(mk(r), opts); !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("killed campaign returned %v, want ErrStopped", err)
	}
}

// health is the run's health report: shard rows and resume summary.
func health(r *experiment.Runner) experiment.HealthReport {
	return r.BuildHealthReport("fleet-test", 0)
}

// readGolden loads testdata/fleet.golden. Setting UPDATE_FLEET_GOLDEN
// rewrites it from the unjournaled Table 1 reference first (a
// deliberate act after a substrate change, the same discipline as the
// table goldens).
func readGolden(t *testing.T) []byte {
	t.Helper()
	path := filepath.Join("testdata", "fleet.golden")
	if os.Getenv("UPDATE_FLEET_GOLDEN") != "" {
		if err := os.WriteFile(path, reference(t, cubes[0].make), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFleetMatchesSerialGolden: the golden is the unjournaled Table 1
// reference, and an uninterrupted journaled run of each cube — any
// shard/worker split — reproduces its reference byte for byte.
func TestFleetMatchesSerialGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	if got, want := reference(t, cubes[0].make), readGolden(t); !bytes.Equal(got, want) {
		t.Fatalf("unjournaled reference drifted from golden:\ngot:\n%s", got)
	}
	forEachCube(t, func(t *testing.T, mk cube, want []byte) {
		r := experiment.NewRunner(goldenSeed)
		r.Workers = 3
		res, err := r.RunCube(mk(r), drillOptions(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		if got := encode(t, res); !bytes.Equal(got, want) {
			t.Errorf("uninterrupted journaled run diverged from reference:\ngot:\n%s\nwant:\n%s", got, want)
		}
		h := health(r)
		if h.Resume != nil {
			t.Errorf("fresh run reports resume state: %+v", h.Resume)
		}
		if len(h.Shards) != 4 {
			t.Fatalf("ran %d shards, want 4", len(h.Shards))
		}
		for _, s := range h.Shards {
			if s.State != "done" || s.Cursor != s.JobEnd || s.Frames == 0 {
				t.Errorf("shard %d finished in state %+v", s.ID, s)
			}
		}
	})
}

// TestFleetKillResumeBitIdentical is the resume acceptance test: a
// campaign killed mid-run and resumed from its checkpoint directory
// produces tallies, obs snapshot, and failure refs byte-identical to
// the unjournaled reference.
func TestFleetKillResumeBitIdentical(t *testing.T) {
	forEachCube(t, func(t *testing.T, mk cube, want []byte) {
		dir := t.TempDir()
		kill(t, mk, dir, 3)
		got, r := run(t, mk, drillOptions(dir))
		if !bytes.Equal(got, want) {
			t.Errorf("kill+resume diverged from reference:\ngot:\n%s\nwant:\n%s", got, want)
		}
		h := health(r)
		if h.Resume == nil || h.Resume.ResumedShards+h.Resume.CompletedShards == 0 {
			t.Fatalf("resumed run restored nothing (resume=%+v) — the kill drill journaled no frames?", h.Resume)
		}
		if h.Resume.ReplayedTrials < 5 {
			t.Errorf("resumed run replayed %d trials, want >= one checkpoint interval", h.Resume.ReplayedTrials)
		}
		resumed := 0
		for _, s := range h.Shards {
			if s.Resumed {
				resumed++
			}
		}
		if resumed == 0 {
			t.Error("no shard carries the Resumed mark")
		}
	})
}

// TestFleetDoubleKillResume survives two successive kills at different
// frame counts before completing — checkpoint cursors stay exact across
// repeated restore/re-journal cycles.
func TestFleetDoubleKillResume(t *testing.T) {
	forEachCube(t, func(t *testing.T, mk cube, want []byte) {
		dir := t.TempDir()
		kill(t, mk, dir, 2)
		kill(t, mk, dir, 3)
		if got, _ := run(t, mk, drillOptions(dir)); !bytes.Equal(got, want) {
			t.Errorf("double kill+resume diverged from reference:\ngot:\n%s", got)
		}
	})
}

// journals lists the shard journals a kill drill left in dir.
func journals(t *testing.T, dir string) []string {
	t.Helper()
	js, err := filepath.Glob(filepath.Join(dir, "shard-*.ckpt.jsonl"))
	if err != nil || len(js) == 0 {
		t.Fatalf("no journals after kill drill (err=%v)", err)
	}
	return js
}

// appendLines appends raw text to a journal.
func appendLines(t *testing.T, path string, text string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(text); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetQuarantineDamagedJournal: malformed lines — torn tails,
// garbage, frames with the wrong version — are quarantined, the shard
// resumes from its last good frame (or from scratch), and the merged
// result still matches the reference byte for byte.
func TestFleetQuarantineDamagedJournal(t *testing.T) {
	forEachCube(t, func(t *testing.T, mk cube, want []byte) {
		dir := t.TempDir()
		kill(t, mk, dir, 3)
		js := journals(t, dir)
		// Damage every journal three ways: a garbage line, a structurally
		// valid frame with an unknown version, and a torn tail (no
		// newline, truncated JSON — the shape a real SIGKILL mid-write
		// leaves).
		for _, j := range js {
			appendLines(t, j, "{this is not json\n"+
				`{"version":99,"campaign":"table1","shard":0,"cursor":0,"tallies":[],"obs":{"counters":{}},"series":{"points":[]}}`+"\n"+
				`{"version":1,"campaign":"table1","shard":`)
		}
		got, r := run(t, mk, drillOptions(dir))
		if !bytes.Equal(got, want) {
			t.Errorf("quarantined resume diverged from reference:\ngot:\n%s", got)
		}
		if h := health(r); h.Resume == nil || h.Resume.QuarantinedFrames < 3*len(js) {
			t.Errorf("resume = %+v, want >= %d quarantined frames", h.Resume, 3*len(js))
		}
		quarantined, _ := filepath.Glob(filepath.Join(dir, "*.quarantined"))
		if len(quarantined) != len(js) {
			t.Errorf("%d quarantined journals retained, want %d", len(quarantined), len(js))
		}
	})
}

// TestFleetWholeJournalGarbage: a journal with no salvageable frame at
// all re-runs the shard from scratch — no crash, same bytes.
func TestFleetWholeJournalGarbage(t *testing.T) {
	forEachCube(t, func(t *testing.T, mk cube, want []byte) {
		dir := t.TempDir()
		kill(t, mk, dir, 3)
		if err := os.WriteFile(journals(t, dir)[0], []byte("total garbage\nmore garbage\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		got, r := run(t, mk, drillOptions(dir))
		if !bytes.Equal(got, want) {
			t.Errorf("garbage-journal resume diverged from reference:\ngot:\n%s", got)
		}
		if h := health(r); h.Resume == nil || h.Resume.QuarantinedFrames == 0 {
			t.Errorf("no quarantined frames reported (resume=%+v)", h.Resume)
		}
	})
}

// TestFleetRejectsInconsistentFrame: a well-formed frame whose tallies
// do not account for its cursor — here shard 0 back at its start but
// claiming a thousand successes — is quarantined like any damaged
// line: the shard resumes from its last honest frame and the result
// stays the golden.
func TestFleetRejectsInconsistentFrame(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	want := readGolden(t)
	dir := t.TempDir()
	mk := cubes[0].make
	kill(t, mk, dir, 3)
	tallies := make([]experiment.Tally, 30) // 15 strategies × 2 arms
	tallies[0] = experiment.Tally{Success: 1000, Total: 1000}
	line, err := json.Marshal(map[string]any{
		"version": experiment.FrameVersion, "campaign": "table1", "shard": 0, "cursor": 0,
		"tallies": tallies, "obs": obs.Snapshot{}, "series": obs.TimeSeriesSnapshot{},
	})
	if err != nil {
		t.Fatal(err)
	}
	appendLines(t, filepath.Join(dir, "shard-0000.ckpt.jsonl"), string(line)+"\n")
	got, r := run(t, mk, drillOptions(dir))
	if !bytes.Equal(got, want) {
		t.Errorf("resume over an inconsistent frame diverged from golden:\ngot:\n%s", got)
	}
	if h := health(r); h.Resume == nil || h.Resume.QuarantinedFrames != 1 {
		t.Errorf("resume = %+v, want exactly the inconsistent frame quarantined", h.Resume)
	}
}

// stopAtFirstFrame journals c into dir on one worker and stops at the
// first frame, five trials in, leaving the manifest behind; it returns
// the run's error.
func stopAtFirstFrame(r *experiment.Runner, c *experiment.Cube, dir string) error {
	r.Workers = 1
	_, err := r.RunCube(c, experiment.CheckpointOptions{Dir: dir, Shards: 2, CheckpointEvery: 5,
		OnFrame: func(int, int) error { return errors.New("stop") }})
	return err
}

// TestFleetStopAtFrameBoundary: a stop leaves the shard in hand at the
// frame that asked for it, and the workers pull no further shard — on
// one worker, only shard 0 was journaled, once, five trials in.
func TestFleetStopAtFrameBoundary(t *testing.T) {
	dir := t.TempDir()
	r := experiment.NewRunner(goldenSeed)
	r.Workers = 1
	_, err := r.RunCube(experiment.Table1Cube(r, goldenScale()), experiment.CheckpointOptions{
		Dir: dir, Shards: 3, CheckpointEvery: 5,
		OnFrame: func(int, int) error { return errors.New("stop") },
	})
	if !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("stopped run returned %v, want ErrStopped", err)
	}
	js := journals(t, dir)
	if len(js) != 1 || len(readJournal(t, js[0])) != 1 {
		t.Fatalf("journals after a stop at the first frame: %v", js)
	}
	for _, s := range health(r).Shards {
		want, cursor := "pending", s.JobStart
		if s.ID == 0 {
			want, cursor = "checkpointed", s.JobStart+5
		}
		if s.State != want || s.Cursor != cursor {
			t.Errorf("shard %d: state %s at cursor %d, want %s at %d", s.ID, s.State, s.Cursor, want, cursor)
		}
	}
}

// TestFleetManifestMismatch: a checkpoint dir from a different
// campaign — another seed, or another cube — is refused, not silently
// blended.
func TestFleetManifestMismatch(t *testing.T) {
	dir := t.TempDir()
	table1 := func(seed int64) error {
		r := experiment.NewRunner(seed)
		return stopAtFirstFrame(r, experiment.Table1Cube(r, goldenScale()), dir)
	}
	if err := table1(goldenSeed); !errors.Is(err, experiment.ErrStopped) {
		t.Fatal(err)
	}
	r := experiment.NewRunner(goldenSeed)
	for name, err := range map[string]error{
		"seed":     table1(goldenSeed + 1),
		"ablation": stopAtFirstFrame(r, experiment.AblationCube(r), dir),
	} {
		if err == nil || !strings.Contains(err.Error(), "different campaign") {
			t.Errorf("%s: mismatched manifest accepted (err=%v)", name, err)
		}
	}
	// Same inputs must still be welcome.
	if err := table1(goldenSeed); !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("matching manifest refused: %v", err)
	}
}

// frameLine is the slice of a journaled frame the series check reads.
type frameLine struct {
	Cursor int                    `json:"cursor"`
	Series obs.TimeSeriesSnapshot `json:"series"`
}

// readJournal decodes every line of a journal (a clean kill leaves no
// damaged ones).
func readJournal(t *testing.T, path string) []frameLine {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []frameLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		var fl frameLine
		if err := json.Unmarshal(sc.Bytes(), &fl); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out = append(out, fl)
	}
	return out
}

// readManifest decodes dir's manifest.json.
func readManifest(t *testing.T, dir string) experiment.Manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m experiment.Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFrameSeriesTerminalSample: every checkpoint frame's series ends
// with a sample cut at that frame — the invariant that keeps resumed
// /timeseries curves gap-free at the kill point — and a resumed shard's
// curve continues monotonically from the restored points.
func TestFrameSeriesTerminalSample(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	mk := cubes[0].make
	dir := t.TempDir()
	kill(t, mk, dir, 3)
	plan := readManifest(t, dir).Shards
	js := journals(t, dir)
	checked := 0
	for _, j := range js {
		id := 0
		if _, err := fmt.Sscanf(filepath.Base(j), "shard-%04d.ckpt.jsonl", &id); err != nil {
			t.Fatal(err)
		}
		frames := readJournal(t, j)
		if len(frames) == 0 {
			continue
		}
		last := frames[len(frames)-1]
		if len(last.Series.Points) < len(frames) {
			t.Errorf("shard %d: %d frames but only %d series points — frames missing their terminal sample", id, len(frames), len(last.Series.Points))
		}
		// done is cumulative per shard; the terminal sample must sit
		// exactly at the frame's cut.
		if got, want := last.Series.Last().Values["done"], float64(last.Cursor-plan[id].JobStart); got != want {
			t.Errorf("shard %d: terminal sample done=%v, frame covers %v trials", id, got, want)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no journaled frames to check")
	}

	// Resume and re-kill immediately: the next frame's series must
	// extend the restored curve (timestamps strictly non-decreasing).
	kill(t, mk, dir, 1)
	for _, j := range js {
		frames := readJournal(t, j)
		if len(frames) == 0 {
			continue
		}
		prev := -1.0
		for _, p := range frames[len(frames)-1].Series.Points {
			if p.T < prev {
				t.Errorf("%s: series time went backwards across resume (%v after %v)", j, p.T, prev)
			}
			prev = p.T
		}
	}
}

// TestFleetHealthSections: a resumed run's health report carries the
// shard table and the resume summary, and both render in the text
// digest.
func TestFleetHealthSections(t *testing.T) {
	if testing.Short() {
		t.Skip("full campaigns")
	}
	mk := cubes[0].make
	dir := t.TempDir()
	kill(t, mk, dir, 3)
	_, r := run(t, mk, drillOptions(dir))
	h := health(r)
	if len(h.Shards) != 4 {
		t.Fatalf("health carries %d shards, want 4", len(h.Shards))
	}
	if h.Resume == nil || h.Resume.ReplayedTrials == 0 {
		t.Fatalf("health resume section = %+v", h.Resume)
	}
	if h.Trials != r.Obs.Trials() || h.Success+h.Failure1+h.Failure2 != int64(h.Trials) {
		t.Fatalf("health counts inconsistent: %+v vs %d trials", h, r.Obs.Trials())
	}
	text := experiment.FormatHealth(h)
	for _, want := range []string{"shards:", "resume:", "trials recovered from checkpoints", "tcb-creation-syn/ttl"} {
		if !strings.Contains(text, want) {
			t.Errorf("health text missing %q:\n%s", want, text)
		}
	}
}

// TestManifestProvenance: the manifest records the cube — its labels,
// canonical strategy and censor specs, and shard plan — with a start
// time that survives a resume through the checkpoint dir.
func TestManifestProvenance(t *testing.T) {
	r := experiment.NewRunner(goldenSeed)
	r.Censor = "turkmenistan"
	dir := t.TempDir()
	cube := experiment.Table1Cube(r, goldenScale())
	if err := stopAtFirstFrame(r, cube, dir); !errors.Is(err, experiment.ErrStopped) {
		t.Fatal(err)
	}
	m := readManifest(t, dir)
	if m.Version != experiment.ManifestVersion || m.Campaign != "table1" || m.Seed != goldenSeed || m.TotalJobs == 0 {
		t.Fatalf("manifest = %+v", m)
	}
	if len(m.Labels) != 30 || len(m.Shards) != 2 || m.Shards[1].JobEnd != m.TotalJobs {
		t.Fatalf("manifest layout: %d labels, shards %+v", len(m.Labels), m.Shards)
	}
	if len(m.Strategies) != 15 || m.Strategies[1].Name != m.Labels[2] || m.Strategies[1].Spec == "" {
		t.Fatalf("manifest strategies = %+v", m.Strategies)
	}
	if len(m.Censors) != 1 || m.Censors[0] == "" || m.Censors[0] == "turkmenistan" {
		t.Fatalf("manifest censors %q not canonicalized spec text", m.Censors)
	}
	if m.Started == "" {
		t.Fatal("manifest missing start time")
	}
	// Resuming the same cube is accepted and keeps the original stamp.
	r2 := experiment.NewRunner(goldenSeed)
	r2.Censor = "turkmenistan"
	if err := stopAtFirstFrame(r2, experiment.Table1Cube(r2, goldenScale()), dir); !errors.Is(err, experiment.ErrStopped) {
		t.Fatalf("resume over own manifest: %v", err)
	}
	if again := readManifest(t, dir); again.Started != m.Started {
		t.Fatalf("resume rewrote the start time: %q -> %q", m.Started, again.Started)
	}
}
