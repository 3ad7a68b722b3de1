package experiment

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"intango/internal/obs"
)

// FrameVersion is the checkpoint frame schema version. A frame with a
// different version is quarantined on load, never guessed at.
const FrameVersion = 1

// FailureRef identifies one retained failing trial — the checkpoint
// frame's weight-free stand-in for a full flight-recorder trace. A
// restored shard seeds its sink's min-N retention with refs as
// key-only traces, so the set that survives a kill/resume is identical
// to the uninterrupted one.
type FailureRef struct {
	Strategy  string `json:"strategy"`
	VP        string `json:"vp"`
	Server    string `json:"server"`
	Sensitive bool   `json:"sensitive,omitempty"`
	Trial     int    `json:"trial"`
	Outcome   string `json:"outcome"`
}

// frame is one cumulative checkpoint of a shard: everything needed to
// resume the shard from Cursor with merged results bit-identical to an
// uninterrupted run. Frames are journaled one-per-line (JSONL); each
// supersedes all earlier frames for the shard, so a loader only ever
// needs the last valid line.
type frame struct {
	Version  int    `json:"version"`
	Campaign string `json:"campaign"`
	Shard    int    `json:"shard"`
	// Cursor is the absolute index of the next job to run; jobs
	// [JobStart, Cursor) are folded into this frame.
	Cursor int  `json:"cursor"`
	Final  bool `json:"final,omitempty"`
	// Tallies is the shard's full tally vector (cube layout).
	Tallies []Tally `json:"tallies"`
	// Obs is the shard registry snapshot — counters, gauges, and
	// histograms, all of which fold through the commutative merge.
	Obs obs.Snapshot `json:"obs"`
	// Failures is the shard's retained min-N failing-trial set as refs.
	Failures []FailureRef `json:"failures,omitempty"`
	// Series is the shard's progress curve so far. Every frame carries
	// a terminal sample at its own cut point, so a resumed /timeseries
	// has no gap at the kill.
	Series obs.TimeSeriesSnapshot `json:"series"`
}

// valid reports whether f can resume shard id of campaign — jobs
// [start, end) of a cube with ntallies tallies. Beyond the header and
// cursor range, the tallies must account for the cursor exactly: each
// is non-negative with its outcomes summing to its total, and the
// totals sum to the trials run, Cursor − start. Every retained failure
// must name a failing outcome.
func (f *frame) valid(campaign string, id, start, end, ntallies int) bool {
	if f.Version != FrameVersion || f.Campaign != campaign || f.Shard != id ||
		f.Cursor < start || f.Cursor > end || (f.Final && f.Cursor != end) ||
		len(f.Tallies) != ntallies {
		return false
	}
	ran, sum := f.Cursor-start, 0
	for _, t := range f.Tallies {
		// Bounding every field by ran first keeps the sums below from
		// overflowing on hostile input.
		if min(t.Success, t.Failure1, t.Failure2) < 0 || max(t.Success, t.Failure1, t.Failure2, t.Total) > ran ||
			t.Success+t.Failure1+t.Failure2 != t.Total {
			return false
		}
		sum += t.Total
	}
	for _, ref := range f.Failures {
		if out, ok := parseOutcome(ref.Outcome); !ok || out == Success {
			return false
		}
	}
	return sum == ran
}

// parseOutcome inverts Outcome.String.
func parseOutcome(s string) (Outcome, bool) {
	for o := Outcome(0); o < numOutcomes; o++ {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// refsFromTraces projects retained traces down to refs.
func refsFromTraces(ts []TrialTrace) []FailureRef {
	refs := make([]FailureRef, len(ts))
	for i, t := range ts {
		refs[i] = FailureRef{
			Strategy: t.Strategy, VP: t.VP, Server: t.Server,
			Sensitive: t.Sensitive, Trial: t.Trial,
			Outcome: t.Outcome.String(),
		}
	}
	return refs
}

// restore rehydrates the state from a valid checkpoint frame: the
// trial cursor, the tallies, the registry snapshot (folded
// through the commutative snapshot merge), and the retained failures
// as key-only traces. The restored sink counts the replayed trials but
// holds no flight-recorder events or per-trial event volumes — those
// live only in memory.
func (st *shardState) restore(f *frame) {
	st.cursor = f.Cursor
	copy(st.tallies, f.Tallies)
	st.sink.Registry.MergeSnapshot(f.Obs)
	st.sink.trials = f.Cursor - st.start
	for _, ref := range f.Failures {
		out, _ := parseOutcome(ref.Outcome)
		st.sink.failures = append(st.sink.failures, TrialTrace{
			Strategy: ref.Strategy, VP: ref.VP, Server: ref.Server,
			Sensitive: ref.Sensitive, Trial: ref.Trial, Outcome: out,
		})
	}
	st.sink.compact()
}

// journalPath names shard id's checkpoint journal inside dir.
func journalPath(dir string, id int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.ckpt.jsonl", id))
}

// journalLoad replays shard id's journal and returns the last valid
// frame (nil when none), how many valid frames it holds, and how many
// lines were quarantined — malformed JSON or an invalid frame.
// Truncated tails (a kill mid-write) land in the quarantined count; the
// preceding complete frame still wins. A missing journal is simply
// (nil, 0, 0).
func journalLoad(dir, campaign string, id, start, end, ntallies int) (last *frame, frames, quarantined int, err error) {
	data, rerr := os.ReadFile(journalPath(dir, id))
	if rerr != nil {
		if os.IsNotExist(rerr) {
			return nil, 0, 0, nil
		}
		return nil, 0, 0, rerr
	}
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var f frame
		if json.Unmarshal(line, &f) != nil || !f.valid(campaign, id, start, end, ntallies) {
			quarantined++
			continue
		}
		frames++
		last = &f
	}
	if serr := sc.Err(); serr != nil {
		return nil, 0, 0, serr
	}
	return last, frames, quarantined, nil
}

// quarantineJournal moves a journal that contained invalid lines aside
// so the shard re-journals cleanly from its last good frame. The first
// quarantine is shard-NNNN.ckpt.jsonl.quarantined and each later one
// takes the next free numbered suffix (.quarantined.1, .2, …): damaged
// evidence is kept for autopsy, never silently deleted.
func quarantineJournal(dir string, id int) error {
	src := journalPath(dir, id)
	dst := src + ".quarantined"
	for n := 1; ; n++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		} else if err != nil {
			return err
		}
		dst = fmt.Sprintf("%s.quarantined.%d", src, n)
	}
	return os.Rename(src, dst)
}

// journalWriter appends frames to a shard journal, one JSON line per
// frame, fsync-free (the checkpoint cadence is the durability unit; a
// torn tail line is exactly what the loader quarantines).
type journalWriter struct {
	f *os.File
}

// openJournalWriter opens shard id's journal for appending, creating
// it (and dir) as needed. seed, when non-nil, re-journals the last good
// frame first — the recovery step after quarantining a damaged journal.
func openJournalWriter(dir string, id int, seed *frame) (*journalWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(journalPath(dir, id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	w := &journalWriter{f: f}
	if seed != nil {
		if err := w.append(seed); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

func (w *journalWriter) append(f *frame) error {
	b, err := json.Marshal(f)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.f.Write(b)
	return err
}

func (w *journalWriter) close() error { return w.f.Close() }
