package experiment

import (
	"math/rand"
	"reflect"
	"testing"

	"intango/internal/obs"
)

// TestArenaMatchesFreshRigs runs every job of the quick Table 1 cube
// and then of the censor-matrix cube, in cube order, through one
// recycled arena with obs attached, and requires each trial's outcome,
// event count and flight-recorder stream to equal a fresh-rig run of
// the same job, down to the events left pending at the end. A field
// Reset misses, an event that survives it (every event pending at a
// trial's end lies beyond the next trial's 8.5 s window, so only the
// pending count shows it), or a memo that hands one pair another's
// draws shows up at the first trial it touches, where the campaign
// tests compare only tallies. The matrix runs engine and inline
// censors on one pair, so its memo is read to different depths; Table
// 1's two-device servers read four draws.
func TestArenaMatchesFreshRigs(t *testing.T) {
	if raceEnabled {
		// One goroutine: the detector finds nothing here, only cost.
		// The executor determinism tests run the arena under -race.
		t.Skip("single-goroutine comparison; skipped under -race")
	}
	r := NewRunner(42)
	matrix, _ := matrixCube(r, MatrixCensors(), 2)
	a := r.newArena()
	regArena, regFresh := obs.NewRegistry(), obs.NewRegistry()
	trials := 0
	for _, c := range []*Cube{Table1Cube(r, QuickScale()), matrix} {
		for i := range c.jobs {
			j := &c.jobs[i]
			out, rg, rec := r.runRig(j, regArena, nil, a)
			steps, pending, total, events := rg.sim.Steps(), rg.sim.Pending(), rec.Total(), rec.Events()
			wantOut, wantRg, wantRec := r.runRig(j, regFresh, nil, r.oneShot())
			switch {
			case out != wantOut:
				t.Fatalf("%s job %d (%s ~ %s, trial %d): arena outcome %v, fresh %v",
					c.name, i, j.vp.Name, j.srv.Name, j.trial, out, wantOut)
			case steps != wantRg.sim.Steps() || pending != wantRg.sim.Pending() || total != wantRec.Total():
				t.Fatalf("%s job %d: arena ran %d events, left %d pending and recorded %d; fresh %d, %d and %d",
					c.name, i, steps, pending, total, wantRg.sim.Steps(), wantRg.sim.Pending(), wantRec.Total())
			case !reflect.DeepEqual(events, wantRec.Events()):
				t.Fatalf("%s job %d (%s ~ %s, trial %d): flight-recorder streams differ",
					c.name, i, j.vp.Name, j.srv.Name, j.trial)
			}
			trials++
		}
	}
	if got, want := regArena.Snapshot(), regFresh.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("arena counters differ from fresh rigs':\narena: %+v\nfresh: %+v", got.Counters, want.Counters)
	}
	if len(a.pairs) == 0 || trials == 0 {
		t.Fatalf("%d trials memoized %d pairs; the comparison is vacuous", trials, len(a.pairs))
	}
}

// TestPairDrawsReplayFreshSource reads pair streams through cursors of
// one recycling arena, to depths past the memo's first chunk so it
// must grow, and through cursors of a one-shot arena; every draw must
// equal a fresh source's, and only the recycling arena keeps a memo.
func TestPairDrawsReplayFreshSource(t *testing.T) {
	r := NewRunner(1)
	a, one := r.newArena(), r.oneShot()
	seeds := []int64{-3, 0, 42}
	for _, depth := range []int{2, 0, 4, 3*pairDrawChunk + 1, 1, 2 * pairDrawChunk} {
		for _, seed := range seeds {
			want := rand.New(rand.NewSource(seed))
			recycled, fresh := a.pairDraws(seed), one.pairDraws(seed)
			for k := 0; k < depth; k++ {
				w := want.Float64()
				if got := recycled.Float64(); got != w {
					t.Fatalf("seed %d draw %d at depth %d: memo replays %v, fresh source %v", seed, k, depth, got, w)
				}
				if got := fresh.Float64(); got != w {
					t.Fatalf("seed %d draw %d: one-shot cursor %v, fresh source %v", seed, k, got, w)
				}
			}
		}
	}
	if len(a.pairs) != len(seeds) || one.pairs != nil {
		t.Fatalf("memos: recycling arena %d (want %d), one-shot %v (want none)", len(a.pairs), len(seeds), one.pairs)
	}
}

// BenchmarkRigBuild times one trial's rig build on its own — topology
// instantiation, censor devices, both stacks — against a fresh arena
// per build and against one recycled arena, as RunOne and a campaign
// worker build it.
func BenchmarkRigBuild(b *testing.B) {
	r := NewRunner(42)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 42)[0]
	seed := func(i int) int64 { return r.pairSeed(vp, srv) ^ int64(uint64(i)*0x9e3779b97f4a7c15) }
	b.Run("fresh", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.build(vp, srv, r.Topo, r.Censor, seed(i), r.oneShot())
		}
	})
	b.Run("recycled", func(b *testing.B) {
		a := r.newArena()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.build(vp, srv, r.Topo, r.Censor, seed(i), a)
		}
	})
}
