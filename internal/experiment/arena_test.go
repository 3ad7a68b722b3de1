package experiment

import (
	"reflect"
	"strings"
	"testing"

	"intango/internal/obs"
	"intango/internal/topo"
)

// TestArenaMatchesFreshRigs runs every job of every cube the campaign
// executor runs — quick Table 1, the censor matrix, Table 4 inside and
// outside China, Table 5 and the §8 ablation — in cube order through
// one recycled arena with obs attached, and requires each trial's
// outcome, event count and flight-recorder stream to equal a fresh-rig
// run of the same job, down to the events left pending at the end. The
// arena rebuilds its rig in place: the fabric, both stacks, the engine,
// the HTTP server and the devices and middleboxes its topology binds
// are reset, and the connections, flows and TCBs of the trials before
// are reused. A field a Reset misses, an event that survives it (every
// event pending at a trial's end lies beyond the next trial's 8.5 s
// window, so only the pending count shows it), or a reseed that leaves
// one pair's source partly on another's stream shows up at the first
// trial it touches, where the campaign tests compare only tallies. The
// cubes differ in what they attach: the matrix runs engine and inline
// censors on one pair, so its pair source is read to different depths,
// and the ablation's hardened censors; Table 1's two-device servers
// read four draws; Table 4 outside China runs its own vantage points
// and servers, and Table 5 its insertion packet constructions.
func TestArenaMatchesFreshRigs(t *testing.T) {
	if raceEnabled {
		// One goroutine: the detector finds nothing here, only cost.
		// The executor determinism tests run the arena under -race.
		t.Skip("single-goroutine comparison; skipped under -race")
	}
	r := NewRunner(42)
	sc := QuickScale()
	matrix, _ := matrixCube(r, MatrixCensors(), 2)
	table5, _ := table5Cube(r)
	ablation, _ := ablationCube(r)
	cubes := []*Cube{
		Table1Cube(r, sc), matrix,
		table4Cube(r, VantagePoints(), Servers(sc.Servers, r.Cal, r.Seed), sc.Trials),
		table4Cube(r, OutsideVantagePoints(), OutsideServers(4, r.Cal, r.Seed), sc.Trials),
		table5, ablation,
	}
	a := r.newArena()
	regArena, regFresh := obs.NewRegistry(), obs.NewRegistry()
	trials := 0
	for _, c := range cubes {
		for i := range c.jobs {
			j := &c.jobs[i]
			out, rg, rec := r.runRig(j, j.vp, j.srv, regArena, nil, a)
			steps, pending, total, events := rg.sim.Steps(), rg.sim.Pending(), rec.Total(), rec.Events()
			wantOut, wantRg, wantRec := r.runRig(j, j.vp, j.srv, regFresh, nil, r.newArena())
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
	if a.sim == nil || a.pair == nil || trials == 0 {
		t.Fatalf("%d trials left the arena's simulator %p and pair source %p; the comparison is vacuous", trials, a.sim, a.pair)
	}
}

// TestTrialPacketAudit runs the quick Table 1 cube and the
// censor-matrix cube on one recycled arena with obs attached, and
// requires each trial to account for every packet it took from the
// pool: at the trial's end the pool's gets less its puts must equal the
// packets still on the wire, the fabric's sends and injections less its
// deliveries and drops. A packet a strategy, a censor, a middlebox or a
// stack forgets to release shows up at the first trial that forgets it.
func TestTrialPacketAudit(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine audit; skipped under -race")
	}
	r := NewRunner(42)
	matrix, _ := matrixCube(r, MatrixCensors(), 2)
	a := r.newArena()
	trials := 0
	for _, c := range []*Cube{Table1Cube(r, QuickScale()), matrix} {
		for i := range c.jobs {
			j := &c.jobs[i]
			before := r.PoolStats()
			reg := obs.NewRegistry()
			_, rg, _ := r.runRig(j, j.vp, j.srv, reg, nil, a)
			after := r.PoolStats()
			rg.net.FlushCounters()
			n := reg.Snapshot().Counters
			wire := int64(n["netem.send"] + n["netem.inject"] - n["netem.deliver"])
			for k, v := range n {
				if strings.HasPrefix(k, "netem.drop-") {
					wire -= int64(v)
				}
			}
			if owed := int64(after.Gets-before.Gets) - int64(after.Puts-before.Puts); owed != wire {
				t.Fatalf("%s job %d (%s ~ %s, trial %d, sensitive %v): %d packets owed to the pool, %d on the wire",
					c.name, i, j.vp.Name, j.srv.Name, j.trial, j.sensitive, owed, wire)
			}
			trials++
		}
	}
	if trials == 0 || r.PoolStats().Gets == 0 {
		t.Fatalf("%d trials drew %d packets from the pool; the audit is vacuous", trials, r.PoolStats().Gets)
	}
}

// TestGoodputArenaMatchesFresh runs the goodput matrix's uploads, both
// arms, in RunGoodput's order on one recycled arena and requires each
// upload's goodput, outcome and server byte count to equal a run on a
// fresh arena. The recycled simulator lends every trial the buffers of
// the trials before it — the send, receive and out-of-order buffers of
// both stacks and the GFW streams' — so a buffer handed out while
// still in use, or a view of one read after its trial, shows up here.
func TestGoodputArenaMatchesFresh(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine comparison; skipped under -race")
	}
	r := NewRunner(42)
	vp := VantagePoints()[6]
	a := r.newArena()
	uploads := 0
	for _, s := range goodputStrategies() {
		factory := goodputFactory(s.name)
		for _, srv := range controlledServers(r, 3) {
			upload := goodputUpload(srv)
			for _, prog := range []*topo.Program{nil, r.goodputProgram(vp, srv)} {
				bps, delivered, out := r.runGoodputTrial(vp, srv, prog, factory, upload, 0, nil, a)
				wantBps, wantDelivered, wantOut := r.runGoodputTrial(vp, srv, prog, factory, upload, 0, nil, r.newArena())
				if bps != wantBps || delivered != wantDelivered || out != wantOut {
					t.Fatalf("%s ~ %s, shaped %v: arena %d bps, %d bytes, %v; fresh %d bps, %d bytes, %v",
						s.name, srv.Name, prog != nil, bps, delivered, out, wantBps, wantDelivered, wantOut)
				}
				if delivered < GoodputUploadBytes && out == Success {
					t.Fatalf("%s ~ %s: a successful upload delivered %d bytes", s.name, srv.Name, delivered)
				}
				uploads++
			}
		}
	}
	if uploads != 2*len(goodputStrategies())*3 {
		t.Fatalf("%d uploads compared", uploads)
	}
}

// BenchmarkRigBuild times one trial's rig build on its own — topology
// instantiation, censor devices, both stacks — on a fresh arena per
// build, as RunOne builds it. The layer ledger's rig_build records the
// build on a recycled arena, as a campaign worker's.
func BenchmarkRigBuild(b *testing.B) {
	r := NewRunner(42)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 42)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.build(vp, srv, nil, r.Censor, r.pairSeed(vp, srv)^int64(uint64(i)*0x9e3779b97f4a7c15), r.newArena())
	}
}
