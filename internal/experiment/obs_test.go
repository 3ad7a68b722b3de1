package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"intango/internal/core"
	"intango/internal/obs"
	"intango/internal/packet"
	"intango/internal/trace"
)

// TestObsSerialParallelDeterminism is the headline guarantee: a
// one-worker run and a many-worker run of the same campaign produce
// bit-identical tallies, counters, aggregates, and retained failure
// traces.
func TestObsSerialParallelDeterminism(t *testing.T) {
	scale := Scale{VPs: 2, Servers: 2, Trials: 1}
	run := func(workers int, noPool bool) ([]Table1Row, *ObsSink) {
		r := NewRunner(42)
		r.Workers = workers
		r.NoPool = noPool
		r.Obs = NewObsSink()
		rows := RunTable1Parallel(r, scale)
		return rows, r.Obs
	}
	rowsSerial, obsSerial := run(1, false)
	rowsPar, obsPar := run(8, false)

	if !reflect.DeepEqual(rowsSerial, rowsPar) {
		t.Errorf("table rows differ:\nserial: %+v\nparallel: %+v", rowsSerial, rowsPar)
	}
	// Packet pooling must be invisible to results: the heap-only control
	// arm produces bit-identical rows and counters, serial and parallel.
	rowsNoPool, obsNoPool := run(1, true)
	rowsNoPoolPar, obsNoPoolPar := run(8, true)
	if !reflect.DeepEqual(rowsSerial, rowsNoPool) {
		t.Errorf("pooling changed table rows:\npooled: %+v\nheap: %+v", rowsSerial, rowsNoPool)
	}
	if !reflect.DeepEqual(rowsNoPool, rowsNoPoolPar) {
		t.Errorf("heap-arm serial/parallel rows differ:\nserial: %+v\nparallel: %+v", rowsNoPool, rowsNoPoolPar)
	}
	if !reflect.DeepEqual(obsSerial.Snapshot().Counters, obsNoPool.Snapshot().Counters) {
		t.Errorf("pooling changed counters:\npooled: %v\nheap: %v",
			obsSerial.Snapshot().Counters, obsNoPool.Snapshot().Counters)
	}
	if !reflect.DeepEqual(obsSerial.Failures(), obsNoPool.Failures()) {
		t.Errorf("pooling changed retained failure traces")
	}
	if !reflect.DeepEqual(obsNoPool.Snapshot().Counters, obsNoPoolPar.Snapshot().Counters) {
		t.Errorf("heap-arm serial/parallel counters differ")
	}
	snapS, snapP := obsSerial.Snapshot(), obsPar.Snapshot()
	if !reflect.DeepEqual(snapS.Counters, snapP.Counters) {
		t.Errorf("counter snapshots differ:\nserial: %v\nparallel: %v", snapS.Counters, snapP.Counters)
	}
	// The full snapshot — gauges and stage-span histograms included —
	// must be bit-identical too: histogram merges are bucketwise
	// integer sums, so shard order cannot show through.
	if !reflect.DeepEqual(snapS, snapP) {
		t.Errorf("full snapshots differ:\nserial: %+v\nparallel: %+v", snapS, snapP)
	}
	hs, ok := snapS.Histograms["span.handshake"]
	if !ok || hs.Count == 0 {
		t.Error("no span.handshake histogram recorded; span determinism check is vacuous")
	}
	if hs.Count != uint64(obsSerial.Trials()) {
		t.Errorf("span.handshake count %d != trials %d", hs.Count, obsSerial.Trials())
	}
	for _, name := range []string{"span.build", "span.strategy", "span.verdict", "span.teardown"} {
		if snapS.Histograms[name].Count == 0 {
			t.Errorf("stage histogram %s is empty", name)
		}
	}
	if obsSerial.Trials() != obsPar.Trials() {
		t.Errorf("trials differ: %d vs %d", obsSerial.Trials(), obsPar.Trials())
	}
	// Checkpoint codec arm: the snapshot must survive the frame JSON
	// round trip and fold into a fresh registry bit-for-bit — the
	// invariant every fleet checkpoint/resume cycle leans on.
	frame, err := json.Marshal(snapS)
	if err != nil {
		t.Fatal(err)
	}
	var decoded obs.Snapshot
	if err := json.Unmarshal(frame, &decoded); err != nil {
		t.Fatal(err)
	}
	replayed := obs.NewRegistry()
	replayed.MergeSnapshot(decoded)
	if got := replayed.Snapshot(); !reflect.DeepEqual(got, snapS) {
		t.Errorf("snapshot encode→decode→Merge round trip diverged:\ngot:  %+v\nwant: %+v", got, snapS)
	}
	aggS, aggP := obsSerial.Aggregate(0), obsPar.Aggregate(0)
	if aggS.TotalEvents != aggP.TotalEvents ||
		aggS.EventsPerTrialP50 != aggP.EventsPerTrialP50 ||
		aggS.EventsPerTrialP99 != aggP.EventsPerTrialP99 {
		t.Errorf("aggregates differ: %v vs %v", aggS, aggP)
	}
	if !reflect.DeepEqual(obsSerial.Failures(), obsPar.Failures()) {
		t.Errorf("retained failure traces differ:\nserial: %+v\nparallel: %+v",
			obsSerial.Failures(), obsPar.Failures())
	}
	if len(obsSerial.Failures()) == 0 {
		t.Error("campaign retained no failure traces; determinism check is vacuous")
	}
	if snapS.Counters["trials.total"] != uint64(obsSerial.Trials()) {
		t.Errorf("trials.total counter %d != absorbed trials %d",
			snapS.Counters["trials.total"], obsSerial.Trials())
	}

	// The same guarantee over a graph topology: the ECMP demo fabric
	// (two parallel censor devices, asymmetric reverse route) replaces
	// the derived linear paths, and serial vs parallel must still be
	// bit-identical — rows, counters, and retained failure traces.
	runGraph := func(workers int) ([]Table1Row, *ObsSink) {
		r := NewRunner(42)
		r.Workers = workers
		r.Topo = GraphDemoTopo
		r.Obs = NewObsSink()
		rows := RunTable1Parallel(r, scale)
		return rows, r.Obs
	}
	rowsGS, obsGS := runGraph(1)
	rowsGP, obsGP := runGraph(8)
	if !reflect.DeepEqual(rowsGS, rowsGP) {
		t.Errorf("graph-topology serial/parallel rows differ:\nserial: %+v\nparallel: %+v", rowsGS, rowsGP)
	}
	if !reflect.DeepEqual(obsGS.Snapshot().Counters, obsGP.Snapshot().Counters) {
		t.Errorf("graph-topology serial/parallel counters differ:\nserial: %v\nparallel: %v",
			obsGS.Snapshot().Counters, obsGP.Snapshot().Counters)
	}
	if !reflect.DeepEqual(obsGS.Failures(), obsGP.Failures()) {
		t.Errorf("graph-topology serial/parallel failure traces differ")
	}
	if reflect.DeepEqual(rowsGS, rowsSerial) {
		t.Error("graph campaign produced identical rows to the linear campaign; graph arm is vacuous")
	}

	// The same guarantee with a spec-compiled censor replacing the GFW
	// population: the inline Turkmenistan blocker (flow blackholes,
	// per-packet bidirectional DPI) is built per trial from one cached
	// Compiled, and serial vs parallel must stay bit-identical.
	runCensor := func(workers int) ([]Table1Row, *ObsSink) {
		r := NewRunner(42)
		r.Workers = workers
		r.Censor = "turkmenistan"
		r.Obs = NewObsSink()
		rows := RunTable1Parallel(r, scale)
		return rows, r.Obs
	}
	rowsCS, obsCS := runCensor(1)
	rowsCP, obsCP := runCensor(8)
	if !reflect.DeepEqual(rowsCS, rowsCP) {
		t.Errorf("spec-censor serial/parallel rows differ:\nserial: %+v\nparallel: %+v", rowsCS, rowsCP)
	}
	if !reflect.DeepEqual(obsCS.Snapshot().Counters, obsCP.Snapshot().Counters) {
		t.Errorf("spec-censor serial/parallel counters differ:\nserial: %v\nparallel: %v",
			obsCS.Snapshot().Counters, obsCP.Snapshot().Counters)
	}
	if !reflect.DeepEqual(obsCS.Failures(), obsCP.Failures()) {
		t.Errorf("spec-censor serial/parallel failure traces differ")
	}
	if obsCS.Snapshot().Counters["censor.detect-keyword"] == 0 {
		t.Error("spec-censor campaign detected nothing; censor arm is vacuous")
	}
	if reflect.DeepEqual(rowsCS, rowsSerial) {
		t.Error("spec-censor campaign produced identical rows to the GFW campaign; arm is vacuous")
	}

	// And over a graph topology whose censors attach declaratively
	// (censor= node attributes binding registry censors onto parallel
	// branches).
	runZoo := func(workers int) ([]Table1Row, *ObsSink) {
		r := NewRunner(42)
		r.Workers = workers
		r.Topo = GraphZooTopo
		r.Obs = NewObsSink()
		rows := RunTable1Parallel(r, scale)
		return rows, r.Obs
	}
	rowsZS, obsZS := runZoo(1)
	rowsZP, obsZP := runZoo(8)
	if !reflect.DeepEqual(rowsZS, rowsZP) {
		t.Errorf("censor-zoo-topology serial/parallel rows differ:\nserial: %+v\nparallel: %+v", rowsZS, rowsZP)
	}
	if !reflect.DeepEqual(obsZS.Snapshot().Counters, obsZP.Snapshot().Counters) {
		t.Errorf("censor-zoo-topology serial/parallel counters differ")
	}
	if !reflect.DeepEqual(obsZS.Failures(), obsZP.Failures()) {
		t.Errorf("censor-zoo-topology serial/parallel failure traces differ")
	}

	// And over a bandwidth-constrained topology: token-bucket shaping,
	// a tight router queue, and the congestion machinery it wakes up
	// (tail drops, retransmission timers, cwnd state) are all integer
	// virtual-time arithmetic, so serial vs parallel must remain
	// bit-identical with queues overflowing.
	bwSpec := derivedSpec(shapeKey(VantagePoints()[0], Servers(1, NewRunner(42).Cal, 42)[0], 5))
	for i := range bwSpec.Links {
		if bwSpec.Links[i].From == "c" || bwSpec.Links[i].To == "c" {
			bwSpec.Links[i].RateBits = 56_000
			bwSpec.Links[i].Queue = 4
		}
	}
	runBW := func(workers int) ([]Table1Row, *ObsSink) {
		r := NewRunner(42)
		r.Workers = workers
		r.Topo = bwSpec.String()
		r.Obs = NewObsSink()
		rows := RunTable1Parallel(r, scale)
		return rows, r.Obs
	}
	rowsBS, obsBS := runBW(1)
	rowsBP, obsBP := runBW(8)
	if !reflect.DeepEqual(rowsBS, rowsBP) {
		t.Errorf("bw-constrained serial/parallel rows differ:\nserial: %+v\nparallel: %+v", rowsBS, rowsBP)
	}
	if !reflect.DeepEqual(obsBS.Snapshot().Counters, obsBP.Snapshot().Counters) {
		t.Errorf("bw-constrained serial/parallel counters differ:\nserial: %v\nparallel: %v",
			obsBS.Snapshot().Counters, obsBP.Snapshot().Counters)
	}
	if !reflect.DeepEqual(obsBS.Failures(), obsBP.Failures()) {
		t.Errorf("bw-constrained serial/parallel failure traces differ")
	}
	if obsBS.Snapshot().Counters["netem.drop-queue"] == 0 {
		t.Error("bw-constrained campaign saw no queue drops; congestion arm is vacuous")
	}
	if reflect.DeepEqual(rowsBS, rowsSerial) {
		t.Error("bw-constrained campaign produced identical rows to the unshaped campaign; arm is vacuous")
	}

	// Traced vs untraced over the graph: attaching the packet tracer
	// (which suppresses pool recycling on the fabric) must not perturb
	// the outcome, the flight-recorder stream, or the lineage wire IDs
	// embedded in it.
	rTrace := NewRunner(42)
	rTrace.Topo = GraphDemoTopo
	vp := VantagePoints()[0]
	srv := Servers(1, rTrace.Cal, 42)[0]
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	outPlain, _, recPlain := rTrace.runRig(rTrace.job(f, true, 0), &vp, &srv, obs.NewRegistry(), nil, rTrace.newArena())
	tc := trace.New()
	outTraced, _, recTraced := rTrace.runRig(rTrace.job(f, true, 0), &vp, &srv, obs.NewRegistry(), tc, rTrace.newArena())
	if outPlain != outTraced {
		t.Errorf("tracing changed graph outcome: %v vs %v", outPlain, outTraced)
	}
	if !reflect.DeepEqual(recPlain.Events(), recTraced.Events()) {
		t.Errorf("tracing perturbed the graph flight-recorder stream (lineage IDs included)")
	}
	if !reflect.DeepEqual(recPlain.Spans(), recTraced.Spans()) {
		t.Errorf("tracing perturbed stage spans:\nplain: %+v\ntraced: %+v", recPlain.Spans(), recTraced.Spans())
	}
	if len(recPlain.Spans()) == 0 {
		t.Error("instrumented trial recorded no stage spans")
	}
	if len(tc.Packets) == 0 {
		t.Fatal("tracer captured no packets on the graph topology")
	}
	for _, p := range tc.Packets {
		if p.ID == 0 {
			t.Fatalf("captured packet with unstamped lineage: %+v", p)
		}
	}
}

// TestObsDoesNotPerturbOutcomes: attaching the full instrumentation
// bundle must not change any trial's classification.
func TestObsDoesNotPerturbOutcomes(t *testing.T) {
	vp := VantagePoints()[0]
	bare := NewRunner(7)
	srv := Servers(3, bare.Cal, 7)
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	instr := NewRunner(7)
	instr.Obs = NewObsSink()
	for si, s := range srv {
		for trial := 0; trial < 2; trial++ {
			a := bare.RunOne(vp, s, f, true, trial)
			b := instr.RunOne(vp, s, f, true, trial)
			if a != b {
				t.Fatalf("server %d trial %d: bare %v, instrumented %v", si, trial, a, b)
			}
		}
	}
	if instr.Obs.Trials() == 0 || len(instr.Obs.Snapshot().Counters) == 0 {
		t.Error("instrumented runner collected nothing")
	}
}

// TestRunOneTraced: a causal trace's event stream is non-empty, with
// nondecreasing virtual timestamps, and the traced trial classifies as
// the plain one does.
func TestRunOneTraced(t *testing.T) {
	r := NewRunner(7)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 7)[0]
	f, _, _ := core.ResolveStrategy("improved-teardown")
	out, tr := r.RunOneCausal(vp, srv, f, "improved-teardown", true, 3)
	if out != r.RunOne(vp, srv, f, true, 3) {
		t.Error("traced run classified differently from plain run")
	}
	events := tr.Events
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}
	for i := 1; i < len(events); i++ {
		if events[i].T < events[i-1].T {
			t.Fatalf("timestamps regress at %d: %v after %v", i, events[i], events[i-1])
		}
	}
	for _, e := range events {
		if e.Subsys == "" || e.Verb == "" {
			t.Fatalf("event missing subsystem or verb: %+v", e)
		}
	}
}

func TestOutcomeStringUnknown(t *testing.T) {
	if got := Outcome(7).String(); got != "outcome(7)" {
		t.Errorf("Outcome(7).String() = %q, want outcome(7)", got)
	}
	if got := Failure2.String(); got != "failure-2" {
		t.Errorf("Failure2.String() = %q", got)
	}
}

func TestFirstDivergence(t *testing.T) {
	a := []obs.Event{{Subsys: "gfw", Verb: "resync"}, {Subsys: "gfw", Verb: "inject-type1"}}
	if d := firstDivergence(a, a); d != "" {
		t.Errorf("identical traces diverge: %q", d)
	}
	b := []obs.Event{{Subsys: "gfw", Verb: "resync"}, {Subsys: "gfw", Verb: "keyword-match"}}
	if d := firstDivergence(a, b); d == "" {
		t.Error("differing traces report no divergence")
	}
	if d := firstDivergence(a, a[:1]); d == "" {
		t.Error("truncated trace reports no divergence")
	}
}

// TestDiagnoseDivergence: when a factor removal flips a failing trial,
// its controlled re-run must diverge from the baseline trace.
func TestDiagnoseDivergence(t *testing.T) {
	r := NewRunner(42)
	servers := Servers(30, r.Cal, 42)
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	for _, vp := range VantagePoints() {
		for _, srv := range servers {
			if r.RunOne(vp, srv, f, true, 0) == Success {
				continue
			}
			d := r.Diagnose(vp, srv, "teardown-rst/ttl", 0)
			if len(d.BaselineTrace) == 0 {
				t.Fatal("failing baseline has no trace")
			}
			for _, att := range d.Attributions {
				if att.Explains && att.FirstDivergence == "" {
					t.Errorf("factor %s flips the outcome but traces do not diverge", att.Factor)
				}
			}
			if out := FormatDiagnosisDetail(d); out == "" {
				t.Error("empty diagnosis detail")
			}
			return
		}
	}
	t.Fatal("no failing pair found to diagnose")
}

// BenchmarkObsOverhead measures the instrumentation tax on a full
// trial: "disabled" is the nil-Obs hot path (one branch per probe
// site), "enabled" attaches the registry and flight recorder.
func BenchmarkObsOverhead(b *testing.B) {
	vp := VantagePoints()[0]
	f, _, _ := core.ResolveStrategy("improved-teardown")
	b.Run("disabled", func(b *testing.B) {
		r := NewRunner(7)
		srv := Servers(1, r.Cal, 7)[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunOne(vp, srv, f, true, 3)
		}
	})
	b.Run("enabled", func(b *testing.B) {
		r := NewRunner(7)
		srv := Servers(1, r.Cal, 7)[0]
		r.Obs = NewObsSink()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.RunOne(vp, srv, f, true, 3)
		}
	})
}

// trialAllocBudget is the allocation budget of the trial hot path:
// BenchmarkTrialHotPath's steady state for an uninstrumented RunOne
// over an unshaped derived chain on the fabric substrate, with routing
// shared per program and keyword automata shared across trials, and
// in-order segments delivered without a per-segment copy in the GFW
// stream and the TCP receive path. RunOne builds on a new arena: a new
// simulator, pair source and rig. Its vantage point and server stay on
// its stack, passed beside the job, and the origin's answer is rendered
// once per process. The engine returns every volley in its own
// emissions buffer, builds its insertion packets from the pool and
// schedules their waves without closures, and a connection arms its
// retransmission timer without a closure. The rig's fabric, stacks,
// engine and HTTP server live in the arena, the tables nothing writes
// (fragment reassemblers, UDP handlers, block tables) are never made,
// and the request and the response check allocate nothing.
const trialAllocBudget = 53

// arenaTrialAllocBudget is the same trial's budget on a campaign
// worker's warmed arena, which resets the simulator, reseeds the pair
// source and rebuilds the rig in place: the simulator lends the trial's
// byte buffers, and the stacks, the engine, the GFW devices and the
// HTTP server reuse the connections, flows, TCBs and served-connection
// state of the trials before. Nothing is left to allocate.
const arenaTrialAllocBudget = 0

// requireTrialAllocBudget is the one allocation gate of the trial hot
// path. It warms a runner and an arena, measures the allocs/op of
// RunOne and of a trial on the arena, and fails the test if either
// exceeds its budget. Short windows read ~1 high (sync.Pool refills
// after GC amortize over fewer runs), so the gate allows that
// amortization slack but nothing that would hide a real per-trial
// allocation, such as an arena that hands back a new RNG source. what
// names the trial in the failure message.
func requireTrialAllocBudget(t *testing.T, what string) {
	t.Helper()
	if raceEnabled {
		t.Skip("race instrumentation inflates alloc counts")
	}
	if packet.Checked {
		t.Skip("the checked build never recycles packets or lent bytes")
	}
	r := NewRunner(42)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 42)[0]
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	j := r.job(f, true, 0)
	a := r.newArena()
	for i := 0; i < 200; i++ {
		r.RunOne(vp, srv, f, true, 0)      // warm the packet pool past GC churn
		r.runOne(j, &vp, &srv, "", nil, a) // and the arena's queue
	}
	for _, gate := range []struct {
		path   string
		budget int
		trial  func()
	}{
		{"RunOne", trialAllocBudget, func() { r.RunOne(vp, srv, f, true, 0) }},
		{"a warmed arena", arenaTrialAllocBudget, func() { r.runOne(j, &vp, &srv, "", nil, a) }},
	} {
		if avg := testing.AllocsPerRun(1000, gate.trial); avg > float64(gate.budget+1) {
			t.Fatalf("%s allocates %.1f/op on %s, budget %d", what, avg, gate.path, gate.budget)
		}
	}
}

// TestTelemetryDisabledZeroAlloc holds the disabled-telemetry trial to
// the hot-path budget: the obs layer (gauges, histograms, spans,
// sampling) must cost the uninstrumented path nothing beyond its one
// nil check per probe site. BenchmarkTrialHotPath reports the same
// number; this test makes the bound a hard failure in `go test` and
// `make bench-obs`.
func TestTelemetryDisabledZeroAlloc(t *testing.T) {
	requireTrialAllocBudget(t, "uninstrumented trial")
}
