package experiment

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestShardBounds: contiguous shards covering every job, sizes
// differing by at most one with the remainder on the leading shards,
// and the shard count clamped to [1, total].
func TestShardBounds(t *testing.T) {
	for _, tc := range []struct {
		total, n int
		sizes    []int
	}{
		{10, 3, []int{4, 3, 3}},
		{6, 3, []int{2, 2, 2}},
		{3, 8, []int{1, 1, 1}}, // clamped to total
		{5, 1, []int{5}},
		{7, 0, []int{7}}, // clamped up to 1
		{0, 4, []int{0}},
	} {
		b := shardBounds(tc.total, tc.n)
		if len(b) != len(tc.sizes)+1 || b[0] != 0 || b[len(b)-1] != tc.total {
			t.Fatalf("shardBounds(%d,%d) = %v, want %d shards over [0,%d)", tc.total, tc.n, b, len(tc.sizes), tc.total)
		}
		for i, size := range tc.sizes {
			if b[i+1]-b[i] != size {
				t.Fatalf("shardBounds(%d,%d) = %v, want sizes %v", tc.total, tc.n, b, tc.sizes)
			}
		}
	}
}

// TestQuarantineKeepsEveryJournal: a shard damaged twice keeps both
// damaged journals, each with its original bytes — the second
// quarantine takes the next numbered suffix instead of replacing the
// first.
func TestQuarantineKeepsEveryJournal(t *testing.T) {
	dir := t.TempDir()
	damage := [][]byte{[]byte("first damage\n"), []byte("second damage\n")}
	for _, b := range damage {
		if err := os.WriteFile(journalPath(dir, 3), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := quarantineJournal(dir, 3); err != nil {
			t.Fatal(err)
		}
	}
	for i, name := range []string{".quarantined", ".quarantined.1"} {
		got, err := os.ReadFile(journalPath(dir, 3) + name)
		if err != nil || !bytes.Equal(got, damage[i]) {
			t.Errorf("%s holds %q (err=%v), want %q", name, got, err, damage[i])
		}
	}
	if _, err := os.Stat(journalPath(dir, 3)); !os.IsNotExist(err) {
		t.Errorf("live journal left behind (err=%v)", err)
	}
}

// fuzzCube is the small Table 1 cube the loader fuzz targets restore
// into: 30 jobs, 30 tallies, journaled as shard 0 of [0, 12).
func fuzzCube() (*Runner, *Cube) {
	r := NewRunner(42)
	return r, Table1Cube(r, Scale{VPs: 1, Servers: 1, Trials: 1})
}

const fuzzShardEnd = 12

// journalSeeds are the damaged journals the kill/resume tests write —
// garbage, wrong version, a torn tail, a whole-journal garbage file —
// plus a frame whose tallies claim more trials than its cursor, and an
// honest frame cut after five real trials.
func journalSeeds(t testing.TB, r *Runner, c *Cube) [][]byte {
	st := newShardState(c, 0, fuzzShardEnd, NewObsSink())
	var honest []byte
	r.runCubeRange(c, st, r.newArena(), 5, func(bool) bool {
		st.sink.Finish()
		var err error
		honest, err = json.Marshal(&frame{
			Version: FrameVersion, Campaign: c.name, Cursor: st.cursor,
			Tallies: st.tallies, Obs: st.sink.Snapshot(),
			Failures: refsFromTraces(st.sink.Failures()),
		})
		if err != nil {
			t.Fatal(err)
		}
		return false
	})
	inflated := &frame{Version: FrameVersion, Campaign: c.name, Tallies: make([]Tally, len(c.labels))}
	inflated.Tallies[0] = Tally{Success: 1000, Total: 1000}
	bad, err := json.Marshal(inflated)
	if err != nil {
		t.Fatal(err)
	}
	line := func(parts ...[]byte) []byte { return append(bytes.Join(parts, []byte("\n")), '\n') }
	return [][]byte{
		line(honest),
		line(honest, []byte("{this is not json")),
		line(honest, []byte(`{"version":99,"campaign":"table1","shard":0,"cursor":0,"tallies":[],"obs":{"counters":{}},"series":{"points":[]}}`)),
		append(line(honest), `{"version":1,"campaign":"table1","shard":`...),
		[]byte("total garbage\nmore garbage\n"),
		line(honest, bad),
		line(bad),
		{},
	}
}

// FuzzJournal loads arbitrary bytes as shard 0's journal and restores
// them into a small cube. It must never panic; whatever frame survives
// must account for its cursor exactly and leave the shard — and the
// progress snapshot read from it — consistent; and after restore (which
// quarantines and re-journals) the journal reloads clean.
func FuzzJournal(f *testing.F) {
	r, c := fuzzCube()
	for _, seed := range journalSeeds(f, r, c) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(journalPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j := &journal{dir: dir}
		st := newShardState(c, 0, fuzzShardEnd, NewObsSink())
		if err := j.restore(c, []*shardState{st}); err != nil {
			return // an unreadable journal (say, a line past the scanner's limit) fails the run
		}
		ran := st.cursor - st.start
		if ran < 0 || st.cursor > st.end || st.sink.Trials() != ran {
			t.Fatalf("restored cursor %d in [%d,%d), %d sink trials", st.cursor, st.start, st.end, st.sink.Trials())
		}
		total := 0
		for i, tl := range st.tallies {
			for _, v := range []int{tl.Success, tl.Failure1, tl.Failure2, tl.Total} {
				if v < 0 || v > ran {
					t.Fatalf("tally %d = %+v outside [0,%d]", i, tl, ran)
				}
			}
			if tl.Success+tl.Failure1+tl.Failure2 != tl.Total {
				t.Fatalf("tally %d = %+v does not add up", i, tl)
			}
			total += tl.Total
		}
		if total != ran {
			t.Fatalf("tallies hold %d trials, cursor accounts for %d", total, ran)
		}
		st.sink.Finish()
		for _, tr := range st.sink.Failures() {
			if tr.Outcome == Success {
				t.Fatalf("restored a succeeding trial as a failure: %+v", tr)
			}
		}
		pt := newProgressTracker(c, []*shardState{st}, j, ProgressOptions{Interval: time.Hour})
		s := pt.snapshot()
		pt.finish()
		if row := s.Shards[0]; s.Done != int64(ran) || row.Done != int64(ran) || row.Cursor != st.cursor || row.Replayed != ran || s.TrialsPerSec != 0 {
			t.Fatalf("restored snapshot %+v, cursor %d accounts for %d trials", s, st.cursor, ran)
		}
		last, _, quarantined, err := journalLoad(dir, c.name, 0, 0, fuzzShardEnd, len(c.labels))
		if err != nil || quarantined != 0 || (last != nil) != st.row.p.Resumed {
			t.Fatalf("journal after restore: last=%v quarantined=%d err=%v", last != nil, quarantined, err)
		}
	})
}

// FuzzManifest reads arbitrary bytes as manifest.json. Every input is
// either refused with an error or round-trips through the fingerprint:
// written back and reloaded it is the same campaign, and its own
// directory accepts it on resume.
func FuzzManifest(f *testing.F) {
	r, c := fuzzCube()
	m, err := r.manifest(c, shardBounds(len(c.jobs), 3))
	if err != nil {
		f.Fatal(err)
	}
	honest, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(honest),
		string(honest[:len(honest)/2]), // torn
		`{"version":99,"campaign":"table1"}`,
		"total garbage\n",
		"null",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(manifestPath(dir), data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, ok, err := loadManifest(dir)
		if err != nil {
			return
		}
		if !ok {
			t.Fatal("present manifest reported absent")
		}
		again := t.TempDir()
		if err := writeManifest(again, m); err != nil {
			t.Fatal(err)
		}
		m2, ok, err := loadManifest(again)
		if err != nil || !ok {
			t.Fatalf("rewritten manifest unreadable: ok=%v err=%v", ok, err)
		}
		if m2.fingerprint() != m.fingerprint() || m2.Started != m.Started {
			t.Fatalf("manifest did not round-trip:\n%s\n%s", m.fingerprint(), m2.fingerprint())
		}
		if err := reconcileManifest(again, &m2); err != nil {
			t.Fatalf("directory refused its own manifest: %v", err)
		}
	})
}
