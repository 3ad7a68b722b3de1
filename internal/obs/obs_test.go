package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// op is one counter contribution; quick generates random batches.
type op struct {
	Key uint8
	N   uint16
}

func registryFrom(ops []op) *Registry {
	r := NewRegistry()
	for _, o := range ops {
		r.Add("k"+string(rune('a'+o.Key%8)), uint64(o.N))
	}
	return r
}

// TestMergeAssociative checks the property the sharded-parallel runner
// depends on: folding per-worker registries in any grouping yields the
// same totals.
func TestMergeAssociative(t *testing.T) {
	prop := func(a, b, c []op) bool {
		// (a ⊕ b) ⊕ c
		left := NewRegistry()
		ab := registryFrom(a)
		ab.Merge(registryFrom(b))
		left.Merge(ab)
		left.Merge(registryFrom(c))
		// a ⊕ (b ⊕ c)
		right := registryFrom(a)
		bc := registryFrom(b)
		bc.Merge(registryFrom(c))
		right.Merge(bc)
		return reflect.DeepEqual(left.Snapshot(), right.Snapshot())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeCommutative(t *testing.T) {
	prop := func(a, b []op) bool {
		ab := registryFrom(a)
		ab.Merge(registryFrom(b))
		ba := registryFrom(b)
		ba.Merge(registryFrom(a))
		return reflect.DeepEqual(ab.Snapshot(), ba.Snapshot())
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Inc("x")
	r.Add("x", 2)
	r.Add("y", 0) // zero adds register nothing
	if v := r.Value("x"); v != 3 {
		t.Fatalf("x = %d, want 3", v)
	}
	if v := r.Value("missing"); v != 0 {
		t.Fatalf("missing = %d, want 0", v)
	}
	snap := r.Snapshot()
	if len(snap.Counters) != 1 || snap.Counters["x"] != 3 {
		t.Fatalf("snapshot = %v", snap.Counters)
	}
}

// TestRingWraparound drives the recorder past capacity and checks the
// retained window is the most recent events, oldest first.
func TestRingWraparound(t *testing.T) {
	var now time.Duration
	rec := NewRecorder(4, func() time.Duration { return now })
	for i := 0; i < 10; i++ {
		now = time.Duration(i) * time.Millisecond
		rec.Record("t", "v", uint32(i), 0, "")
	}
	if rec.Total() != 10 {
		t.Fatalf("total = %d, want 10", rec.Total())
	}
	if rec.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", rec.Dropped())
	}
	evs := rec.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint32(6+i) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, 6+i)
		}
		if e.T != time.Duration(6+i)*time.Millisecond {
			t.Fatalf("event %d time = %v", i, e.T)
		}
	}
}

func TestRecorderUnderCapacity(t *testing.T) {
	rec := NewRecorder(8, nil)
	rec.Record("a", "b", 0, 0, "")
	rec.Record("a", "c", 0, 0, "")
	evs := rec.Events()
	if len(evs) != 2 || evs[0].Verb != "b" || evs[1].Verb != "c" {
		t.Fatalf("events = %v", evs)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("dropped = %d", rec.Dropped())
	}
}

// TestDisabledNoop exercises the nil-receiver paths every subsystem
// takes when observability is off: no panics, no effects.
func TestDisabledNoop(t *testing.T) {
	var o *Obs
	o.Count("x")
	o.Trace("s", "v", 1, 2, "d")
	if o.Registry() != nil || o.Recorder() != nil {
		t.Fatal("nil Obs leaked a component")
	}
	var reg *Registry
	reg.Add("x", 1)
	reg.Inc("x")
	reg.Merge(NewRegistry())
	NewRegistry().Merge(reg)
	if reg.Value("x") != 0 {
		t.Fatal("nil registry counted")
	}
	if got := reg.Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("nil registry snapshot = %v", got.Counters)
	}
	var rec *Recorder
	rec.Record("s", "v", 0, 0, "")
	if rec.Total() != 0 || rec.Events() != nil || rec.Dropped() != 0 {
		t.Fatal("nil recorder recorded")
	}
	var c *Counter
	c.Add(3)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter counted")
	}
	// A half-enabled Obs (registry only) must also be safe.
	half := New(NewRegistry(), nil)
	half.Count("x")
	half.Trace("s", "v", 0, 0, "")
	if half.Registry().Value("x") != 1 {
		t.Fatal("half-enabled Obs lost a count")
	}
}

func TestSnapshotExport(t *testing.T) {
	r := NewRegistry()
	r.Add("gfw.inject-type2", 3)
	r.Add("gfw.detect", 1)
	var text bytes.Buffer
	if err := r.Snapshot().WriteText(&text); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(text.String()), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[0], "gfw.detect") {
		t.Fatalf("text export not sorted/aligned:\n%s", text.String())
	}
	var js bytes.Buffer
	if err := r.Snapshot().WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, r.Snapshot()) {
		t.Fatalf("JSON round-trip mismatch: %v vs %v", back, r.Snapshot())
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: 12345 * time.Microsecond, Subsys: "gfw", Verb: "detect", Seq: 7, Flags: 0x18, Detail: "gfw-new"}
	s := e.String()
	for _, want := range []string{"12.345ms", "gfw", "detect", "seq=7", "flags=0x18", "gfw-new"} {
		if !strings.Contains(s, want) {
			t.Fatalf("event string %q missing %q", s, want)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := Percentile(sorted, 50); p != 5 {
		t.Fatalf("p50 = %d, want 5", p)
	}
	if p := Percentile(sorted, 99); p != 10 {
		t.Fatalf("p99 = %d, want 10", p)
	}
	if p := Percentile(nil, 50); p != 0 {
		t.Fatalf("empty p50 = %d", p)
	}
}

// BenchmarkDisabledCount measures the disabled (nil) hot path — this
// must compile down to roughly a branch.
func BenchmarkDisabledCount(b *testing.B) {
	var o *Obs
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Count("gfw.detect")
	}
}

// BenchmarkEnabledCount measures the enabled registry hot path.
func BenchmarkEnabledCount(b *testing.B) {
	o := New(NewRegistry(), nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.Count("gfw.detect")
	}
}

// BenchmarkRecord measures the enabled flight-recorder hot path.
func BenchmarkRecord(b *testing.B) {
	rec := NewRecorder(DefaultRingSize, func() time.Duration { return 0 })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec.Record("tcpstack", "retransmit", uint32(i), 0x10, "")
	}
}

// TestRingSustainedEmission drives a default-size recorder far past
// capacity: the ring must hold exactly the most recent window, the
// totals must count every emission, and a tapped EventSink must have
// seen the complete stream including every evicted event.
func TestRingSustainedEmission(t *testing.T) {
	var now time.Duration
	rec := NewRecorder(0, func() time.Duration { return now })
	var tapped []Event
	rec.Tap(sinkFunc(func(e Event) { tapped = append(tapped, e) }))
	const n = 10_000
	for i := 0; i < n; i++ {
		now = time.Duration(i) * time.Microsecond
		rec.RecordPkt("t", "v", uint32(i+1), uint32(i), uint32(i), 0, "")
	}
	if rec.Total() != n {
		t.Fatalf("total = %d, want %d", rec.Total(), n)
	}
	if want := uint64(n - DefaultRingSize); rec.Dropped() != want {
		t.Fatalf("dropped = %d, want %d", rec.Dropped(), want)
	}
	evs := rec.Events()
	if len(evs) != DefaultRingSize {
		t.Fatalf("retained = %d, want %d", len(evs), DefaultRingSize)
	}
	for i, e := range evs {
		want := uint32(n - DefaultRingSize + i)
		if e.Seq != want || e.Pkt != want+1 || e.Parent != want {
			t.Fatalf("event %d = %+v, want seq %d", i, e, want)
		}
	}
	if len(tapped) != n {
		t.Fatalf("tap saw %d events, want %d", len(tapped), n)
	}
	for i, e := range tapped {
		if e.Seq != uint32(i) {
			t.Fatalf("tap event %d seq = %d", i, e.Seq)
		}
	}
}

// sinkFunc adapts a function to EventSink.
type sinkFunc func(Event)

func (f sinkFunc) RecordEvent(e Event) { f(e) }

// TestPercentileEdgeCases pins the nearest-rank convention at the
// degenerate sizes aggregates actually hit: empty campaigns, single
// trials, and uniform distributions.
func TestPercentileEdgeCases(t *testing.T) {
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := Percentile(nil, p); got != 0 {
			t.Fatalf("empty p%v = %d, want 0", p, got)
		}
		if got := Percentile([]int{7}, p); got != 7 {
			t.Fatalf("single p%v = %d, want 7", p, got)
		}
	}
	equal := []int{3, 3, 3, 3, 3}
	for _, p := range []float64{1, 50, 99} {
		if got := Percentile(equal, p); got != 3 {
			t.Fatalf("all-equal p%v = %d, want 3", p, got)
		}
	}
}
