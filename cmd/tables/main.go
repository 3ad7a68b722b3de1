// Command tables regenerates every table and figure of the paper's
// evaluation from the simulated substrate.
//
// Usage:
//
//	tables -what all|1|2|3|4|5|6|tor|vpn|obs|bench|figures [-scale quick|mid|paper] [-seed n]
//
// The paper scale (11 VPs × 77 websites × 50 trials) is faithful but
// slow; quick reproduces the shapes in seconds. -what obs reruns the
// Table 1 campaign with the observability layer attached and dumps
// counters (text and JSON), throughput aggregates, and the flight
// recorder of one failing trial. -what bench measures the trial hot
// path, the goodput trial, the serial/parallel campaign loops and the
// layer benchmarks, five runs each, and writes the report to
// -bench-out (BENCH_netem.json); -what bench-compare OLD.json NEW.json
// diffs two such reports; -what bench-gate COMMITTED.json re-measures
// allocs/op of a trial, a goodput trial, the parallel campaign and
// each layer, and the goodput trial's B/op, and fails when any
// regresses past its committed figure.
//
// -what fleet runs the Table 1 campaign through the campaign executor
// on -shard-procs workers; with -checkpoint-dir it is journaled: the
// job cube is cut into -shards shards whose frames are journaled there,
// so a killed campaign resumes from where it stopped (same dir, same
// flags) with results bit-identical to an uninterrupted run. -progress
// with an address serves the progress plane, which for a journaled run
// adds /shards and /manifest to /progress, /metrics and /timeseries.
package main

import (
	"flag"
	"fmt"
	"os"
	"syscall"
	"time"

	"intango/internal/core"
	"intango/internal/experiment"

	// Registers the -progress HTTP endpoint implementation; the
	// experiment package itself stays free of net/http.
	_ "intango/internal/experiment/progresshttp"
	"intango/internal/ignorepath"
	"intango/internal/obs"
)

func main() {
	var (
		what      = flag.String("what", "all", "which artifact: all,1,2,3,4,5,6,tor,vpn,ablation,diagnose,explain,obs,health,fleet,goodput,bench,bench-compare,bench-gate,figures,strategies,censors,topo")
		scale     = flag.String("scale", "quick", "campaign scale: quick, mid, paper")
		seed      = flag.Int64("seed", 42, "population/campaign seed")
		benchOut  = flag.String("bench-out", "BENCH_netem.json", "report path for -what bench")
		strategy  = flag.String("strategy", "teardown-rst/ttl", "strategy for -what explain: a registered name or spec text")
		traceDir  = flag.String("trace-dir", "", "directory for causal trace bundles (-what explain and diagnose); empty skips writing")
		progress  = flag.String("progress", "", "emit live campaign progress during -what obs, health, or fleet: 'stderr' or an HTTP listen address like 127.0.0.1:8391")
		healthDir = flag.String("health-dir", "", "directory for the health.json/health.txt artifact pair (-what health or fleet); empty skips writing")

		shards        = flag.Int("shards", 8, "shard count for a journaled -what fleet (with -checkpoint-dir)")
		shardProcs    = flag.Int("shard-procs", 4, "campaign workers for -what fleet")
		checkpointDir = flag.String("checkpoint-dir", "", "checkpoint directory for -what fleet: frames are journaled there and an interrupted campaign resumes from them; empty disables checkpointing")
		ckptEvery     = flag.Int("checkpoint-every", experiment.DefaultCheckpointEvery, "trials between checkpoint frames for -what fleet")
		resultOut     = flag.String("result-out", "", "path for the deterministic fleet result artifact (-what fleet); empty skips writing")
		killAfter     = flag.Int("fleet-kill-after", 0, "SIGKILL this process after N checkpoint frames (-what fleet crash-recovery drills); 0 disables")
	)
	flag.Parse()

	r := experiment.NewRunner(*seed)
	var sc experiment.Scale
	switch *scale {
	case "quick":
		sc = experiment.QuickScale()
	case "mid":
		sc = experiment.Scale{VPs: 11, Servers: 30, Trials: 5}
	case "paper":
		sc = experiment.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown -scale %q; pick from quick,mid,paper\n", *scale)
		os.Exit(2)
	}

	want := func(key string) bool { return *what == "all" || *what == key }
	ran := false

	if want("1") {
		ran = true
		experiment.WriteTable1Campaign(os.Stdout, r, sc)
	}
	if want("2") {
		ran = true
		fmt.Println("== Table 2: client-side middlebox behaviours ==")
		fmt.Print(experiment.FormatTable2(experiment.RunTable2(*seed)))
		fmt.Println()
	}
	if want("3") {
		ran = true
		fmt.Println("== Table 3: server/GFW discrepancies (ignore-path analysis) ==")
		findings := ignorepath.Analyze()
		fmt.Print(ignorepath.FormatTable3(findings))
		fmt.Println("cross-validation:")
		for _, note := range ignorepath.CrossValidation(findings) {
			fmt.Println("  " + note)
		}
		fmt.Println()
	}
	if want("4") {
		ran = true
		experiment.WriteTable4Campaign(os.Stdout, r, sc)
	}
	if want("5") {
		ran = true
		experiment.WriteTable5Campaign(os.Stdout, r)
	}
	if want("6") {
		ran = true
		queries := 5
		if *scale == "paper" {
			queries = 100
		} else if *scale == "mid" {
			queries = 20
		}
		fmt.Printf("== Table 6: TCP DNS evasion (%d queries per VP/resolver) ==\n", queries)
		fmt.Print(experiment.FormatTable6(experiment.RunTable6(r, queries)))
		fmt.Println()
	}
	if want("tor") {
		ran = true
		attempts := 2
		if *scale != "quick" {
			attempts = 5
		}
		fmt.Println("== §7.3: Tor bridge blocking and INTANG rescue ==")
		fmt.Print(experiment.FormatTor(experiment.RunTor(r, attempts)))
		fmt.Println()
	}
	if want("vpn") {
		ran = true
		fmt.Println("== §7.3: OpenVPN-over-TCP ==")
		fmt.Print(experiment.FormatVPN(experiment.RunVPN(r)))
		fmt.Println()
	}
	if want("ablation") {
		ran = true
		fmt.Println("== §8 ablation: GFW countermeasures vs strategy suite ==")
		fmt.Print(experiment.FormatAblation(experiment.RunAblation(r)))
		fmt.Println()
	}
	if want("diagnose") {
		ran = true
		fmt.Println("== §3.4 failure attribution (controlled re-runs) ==")
		vps := experiment.VantagePoints()
		servers := experiment.Servers(sc.Servers, r.Cal, *seed)
		for _, strat := range []string{"teardown-rst/ttl", "improved-teardown", "ooo-ipfrag"} {
			counts := r.DiagnoseCampaign(strat, vps, servers, sc.Trials)
			fmt.Print(experiment.FormatDiagnosis(strat, counts))
		}
		fmt.Println("example controlled re-run (flight-recorder divergence per factor):")
		if vp, srv, trial, ok := r.FindFailingTrial("teardown-rst/ttl", vps, servers, 1); ok {
			d := r.Diagnose(vp, srv, "teardown-rst/ttl", trial)
			fmt.Print(experiment.FormatDiagnosisDetail(d))
			if *traceDir != "" {
				paths, err := experiment.WriteDiagnosisBundles(d, *traceDir)
				if err != nil {
					fmt.Fprintf(os.Stderr, "write trace bundles: %v\n", err)
					os.Exit(1)
				}
				fmt.Printf("wrote %d trace bundle files under %s\n", len(paths), *traceDir)
			}
		}
		fmt.Println()
	}
	// Strict equality: a narrative re-run, not a paper artifact.
	if *what == "explain" {
		if _, _, err := core.ResolveStrategy(*strategy); err != nil {
			fmt.Fprintf(os.Stderr, "-strategy: %v\n(-what strategies lists the registered names)\n", err)
			os.Exit(2)
		}
		ran = true
		vps := experiment.VantagePoints()[:sc.VPs]
		servers := experiment.Servers(sc.Servers, r.Cal, *seed)
		narrative, tr, err := r.ExplainFirstFailure(*strategy, vps, servers, sc.Trials)
		if err != nil {
			fmt.Fprintf(os.Stderr, "explain: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(narrative)
		if *traceDir != "" {
			paths, err := tr.WriteBundle(*traceDir, "explain")
			if err != nil {
				fmt.Fprintf(os.Stderr, "write trace bundle: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d trace bundle files under %s\n", len(paths), *traceDir)
		}
	}
	// Strict equality: the obs rerun duplicates Table 1, so "-what all"
	// must not pick it up.
	if *what == "obs" {
		ran = true
		r.Obs = experiment.NewObsSink()
		if *progress != "" {
			opts := &experiment.ProgressOptions{W: os.Stderr}
			if *progress != "stderr" {
				opts.HTTPAddr = *progress
			}
			r.Progress = opts
		}
		start := time.Now()
		rows := experiment.RunTable1Parallel(r, sc)
		wall := time.Since(start)
		fmt.Printf("== Table 1 under observation (%d VPs × %d servers × %d trials) ==\n", sc.VPs, sc.Servers, sc.Trials)
		fmt.Print(experiment.FormatTable1(rows))
		fmt.Println()
		snap := r.Obs.Snapshot()
		fmt.Println("== observability: counters ==")
		snap.WriteText(os.Stdout)
		fmt.Println()
		fmt.Println("== observability: counters (JSON) ==")
		snap.WriteJSON(os.Stdout)
		fmt.Println("== observability: campaign aggregate ==")
		fmt.Println(r.Obs.Aggregate(wall).String())
		fails := r.Obs.Failures()
		if len(fails) == 0 {
			fmt.Fprintf(os.Stderr, "obs: campaign retained no failing trial to replay (%d trials, all succeeded); rerun with a larger -scale or a different -seed\n",
				r.Obs.Trials())
			os.Exit(1)
		}
		f := fails[0]
		fmt.Println()
		fmt.Printf("== observability: flight recorder of one failing trial ==\n")
		fmt.Printf("%s vs %s via %s, trial %d: %s (%d earlier events evicted from the ring)\n",
			f.VP, f.Server, f.Strategy, f.Trial, f.Outcome, f.Dropped)
		fmt.Print(obs.FormatEvents(f.Events))
		fmt.Println()
	}
	// Strict equality: the health campaign duplicates Table 1, so
	// "-what all" must not pick it up.
	if *what == "health" {
		ran = true
		if *progress != "" {
			opts := &experiment.ProgressOptions{W: os.Stderr, Interval: 100 * time.Millisecond}
			if *progress != "stderr" {
				opts.HTTPAddr = *progress
			}
			r.Progress = opts
		}
		h := experiment.RunHealthCampaign(r, sc, "table1-"+*scale)
		fmt.Print(experiment.FormatHealth(h))
		if *healthDir != "" {
			paths, err := experiment.WriteHealthArtifacts(*healthDir, h)
			if err != nil {
				fmt.Fprintf(os.Stderr, "write health artifacts: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d health artifact files under %s\n", len(paths), *healthDir)
		}
	}
	// Strict equality: the fleet campaign duplicates Table 1, so
	// "-what all" must not pick it up.
	if *what == "fleet" {
		ran = true
		r.Workers = *shardProcs
		r.Obs = experiment.NewObsSink()
		r.Progress = &experiment.ProgressOptions{}
		if *progress != "" {
			r.Progress.W = os.Stderr
			if *progress != "stderr" {
				r.Progress.HTTPAddr = *progress
			}
		}
		opts := experiment.CheckpointOptions{
			Dir:             *checkpointDir,
			Shards:          *shards,
			CheckpointEvery: *ckptEvery,
		}
		if *killAfter > 0 {
			n := *killAfter
			opts.OnFrame = func(_, total int) error {
				if total >= n {
					fmt.Fprintf(os.Stderr, "fleet: kill drill: SIGKILL after %d frames\n", total)
					_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
				return nil
			}
		}
		start := time.Now()
		res, err := r.RunCube(experiment.Table1Cube(r, sc), opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "fleet: %v\n", err)
			os.Exit(1)
		}
		wall := time.Since(start)
		fmt.Printf("== Table 1 via fleet (%d procs, %d VPs × %d servers × %d trials) ==\n",
			*shardProcs, sc.VPs, sc.Servers, sc.Trials)
		fmt.Print(experiment.FormatTable1(res.Rows))
		fmt.Println()
		h := r.BuildHealthReport("table1-fleet-"+*scale, wall)
		fmt.Print(experiment.FormatHealth(h))
		if *healthDir != "" {
			paths, err := experiment.WriteHealthArtifacts(*healthDir, h)
			if err != nil {
				fmt.Fprintf(os.Stderr, "write health artifacts: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d health artifact files under %s\n", len(paths), *healthDir)
		}
		if *resultOut != "" {
			f, err := os.Create(*resultOut)
			if err == nil {
				if werr := res.WriteJSON(f); werr != nil {
					err = werr
				}
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", *resultOut, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *resultOut)
		}
	}
	// Strict equality: the goodput matrix is a congestion demo, not a
	// paper table, so "-what all" must not pick it up.
	if *what == "goodput" {
		ran = true
		r.Obs = experiment.NewObsSink()
		experiment.WriteGoodputCampaign(os.Stdout, r, sc)
	}
	// Strict equality again: benchmarking is minutes of repeated
	// campaigns, so "-what all" must not pick it up either.
	if *what == "bench" {
		ran = true
		fmt.Println("== benchmarking trial hot path, campaigns and layers, five runs each (this takes about 30 seconds) ==")
		rep := experiment.RunBench(*seed)
		fmt.Print(experiment.FormatBenchReport(rep))
		f, err := os.Create(*benchOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		if err := experiment.WriteBenchJSON(f, rep); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write %s: %v\n", *benchOut, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *benchOut)
	}
	if *what == "bench-compare" {
		ran = true
		args := flag.Args()
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "usage: tables -what bench-compare OLD.json NEW.json")
			os.Exit(2)
		}
		load := func(path string) experiment.BenchReport {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintf(os.Stderr, "open %s: %v\n", path, err)
				os.Exit(1)
			}
			defer f.Close()
			rep, err := experiment.ReadBenchJSON(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parse %s: %v\n", path, err)
				os.Exit(1)
			}
			return rep
		}
		fmt.Print(experiment.CompareBenchReports(load(args[0]), load(args[1])))
	}
	// CI gate: re-measure allocs/op of a trial, a goodput trial, the
	// parallel campaign and each layer, and the goodput trial's B/op,
	// against the committed report and fail the build past the
	// tolerance. Allocation varies far less than ns/op (only the
	// parallel campaign's count moves between runs, within the
	// tolerance), so this holds on loaded CI machines where ns/op
	// cannot.
	if *what == "bench-gate" {
		ran = true
		args := flag.Args()
		if len(args) != 1 {
			fmt.Fprintln(os.Stderr, "usage: tables -what bench-gate COMMITTED.json")
			os.Exit(2)
		}
		f, err := os.Open(args[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "open %s: %v\n", args[0], err)
			os.Exit(1)
		}
		committed, err := experiment.ReadBenchJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "parse %s: %v\n", args[0], err)
			os.Exit(1)
		}
		ok := true
		for _, g := range experiment.RunBenchGate(*seed, committed, 0) {
			fmt.Printf("bench-gate: %s %s measured=%d committed=%d limit=%d (%.0f%% tolerance)\n",
				g.Section, g.Unit, g.Measured, g.Committed, g.Limit, 100*experiment.BenchGateTolerance)
			if !g.OK() {
				fmt.Fprintf(os.Stderr, "bench-gate: FAIL: %s %s regressed past the committed budget; rerun -what bench and commit the new report if the regression is intended\n", g.Section, g.Unit)
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Println("bench-gate: OK")
	}
	// Reference dump, not a paper artifact: "-what all" skips it.
	if *what == "strategies" {
		ran = true
		fmt.Println("== strategy registry: name ↔ spec ==")
		fmt.Print(core.FormatStrategyTable())
	}
	// Reference dump, not a paper artifact: "-what all" skips it.
	if *what == "censors" {
		ran = true
		experiment.WriteCensorsCampaign(os.Stdout, r)
	}
	// Reference dump, not a paper artifact: "-what all" skips it.
	if *what == "topo" {
		ran = true
		experiment.WriteTopoSpecs(os.Stdout, r, sc)
		fmt.Print(experiment.FormatTopoDemo(*seed))
	}
	if want("figures") {
		ran = true
		fmt.Println(experiment.Figure1(r))
		fmt.Println(experiment.Figure2(r))
		fmt.Println(experiment.Figure3(r))
		fmt.Println(experiment.Figure4(r))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown -what %q; pick from all,1,2,3,4,5,6,tor,vpn,ablation,diagnose,explain,obs,health,fleet,goodput,bench,bench-compare,bench-gate,figures,strategies,censors,topo\n", *what)
		os.Exit(2)
	}
}
