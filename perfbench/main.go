// Command perfbench is the end-to-end benchmark of the intango stack.
// It checks one input of a workload against an independent
// computation, drives the workload for a fixed wall-clock window with
// closed-loop callers, verifies every result, and prints one JSON line
// of metrics as its last output line. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics: request latency
// (p50, p90), work completed per second, process CPU per unit of work,
// and set-up time, the median over fresh processes of the time from
// launch to the first verified result. With --trace 1 it runs the same
// window under the CPU profiler and reports per-layer CPU time and
// allocations per unit of work instead; the profile is kept under
// .bench_build/profiles and the full per-package split goes to
// standard error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// buildDir holds everything the benchmark writes: the binary and Go
// build cache (see run.sh) and profiles.
const buildDir = ".bench_build"

// coldStarts is how many fresh processes a --trace 0 run launches to
// time set-up; setup_s is their median.
const coldStarts = 9

// setupSeed is the run seed of every cold start. It does not depend on
// --seed: one input's cost varies too much from seed to seed for
// set-up time to be compared across runs otherwise.
const setupSeed = -1

// workload is one traffic mix.
type workload struct {
	name    string
	clients int // concurrent closed-loop callers of op
	// check verifies the run's first input against an independent
	// computation; it runs untimed, before anything is measured.
	check func(seed int64) error
	// open readies a run and returns its request: op(n) runs the run's
	// n-th request and returns the units of work it completed (trials,
	// uploads or fetches); an error means the request failed or its
	// result did not verify. close, if not nil, stops what open started.
	open func(seed int64) (op func(n int) (int, error), close func() error, err error)
}

var workloads = []workload{
	{"campaign", 1, checkCampaign, openCampaign},
	{"goodput", 1, checkGoodput, openGoodput},
	{"daemon", daemonClients, checkDaemon, openDaemon},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	rep, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if rep == nil { // a cold start: its parent times it and reads nothing
		return
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run() (*report, error) {
	name := flag.String("workload", "", "workload: campaign, goodput or daemon")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 profiles the window and reports per-layer metrics")
	cold := flag.Bool("cold", false, "only open the workload and run its first request (timed by the parent run)")
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		return nil, fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return nil, fmt.Errorf("--seconds must be at least 1")
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("--trace must be 0 or 1")
	}

	if *cold {
		return nil, firstResult(w, setupSeed)
	}
	var setupTimes []float64
	if *trace == 0 {
		var err error
		if setupTimes, err = timeColdStarts(w); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}
	if err := w.check(*seed); err != nil {
		return nil, fmt.Errorf("%s: check: %w", w.name, err)
	}
	op, closeFn, err := w.open(*seed)
	if err != nil {
		return nil, fmt.Errorf("%s: open: %w", w.name, err)
	}
	if closeFn == nil {
		closeFn = func() error { return nil }
	}
	// One request before the window, so lazy set-up and process-wide
	// caches are filled when timing starts.
	if _, err := op(0); err != nil {
		closeFn()
		return nil, fmt.Errorf("%s: first request: %w", w.name, err)
	}

	window := time.Duration(*seconds) * time.Second
	var rep *report
	if *trace == 1 {
		profile := filepath.Join(buildDir, "profiles", fmt.Sprintf("%s-seed%d.pprof", w.name, *seed))
		rep, err = traced(op, w.clients, window, profile)
	} else {
		rep, err = timed(op, w.clients, window, setupTimes)
	}
	if cerr := closeFn(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", w.name, cerr)
	}
	return rep, err
}

// firstResult is what a cold start does: open the workload and run its
// first request.
func firstResult(w *workload, seed int64) error {
	op, closeFn, err := w.open(seed)
	if err != nil {
		return err
	}
	_, err = op(0)
	if closeFn != nil {
		if cerr := closeFn(); err == nil {
			err = cerr
		}
	}
	return err
}

// timeColdStarts launches this binary coldStarts times in --cold mode,
// one after another, and returns each one's time from launch to exit:
// process start, package initialisation, the workload's set-up and
// its first verified request, on a fixed input.
func timeColdStarts(w *workload) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	times := make([]float64, 0, coldStarts)
	for i := 0; i < coldStarts; i++ {
		cmd := exec.Command(exe, "-cold", "-workload", w.name)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("cold start %d: %w", i, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return times, nil
}

// window is what one measured window observed.
type window struct {
	lats              []time.Duration
	units             int
	attempted, failed int
	firstErr          error
	elapsed, cpu      time.Duration
}

// measure drives op with `clients` closed-loop callers until d has
// passed, timing every request. Requests are numbered from 1 on.
func measure(op func(int) (int, error), clients int, d time.Duration) (window, error) {
	runtime.GC()
	cpu0, err := processCPU()
	if err != nil {
		return window{}, err
	}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	per := make([]window, clients)
	var wg sync.WaitGroup
	for c := range per {
		wg.Add(1)
		go func(w *window) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				units, err := op(int(next.Add(1)))
				w.lats = append(w.lats, time.Since(t0))
				w.attempted++
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
					continue
				}
				w.units += units
			}
		}(&per[c])
	}
	wg.Wait()
	out := window{elapsed: time.Since(start)}
	cpu1, err := processCPU()
	if err != nil {
		return window{}, err
	}
	out.cpu = cpu1 - cpu0
	for _, w := range per {
		out.lats = append(out.lats, w.lats...)
		out.units += w.units
		out.attempted += w.attempted
		out.failed += w.failed
		if out.firstErr == nil {
			out.firstErr = w.firstErr
		}
	}
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d requests failed; first: %v\n", out.failed, out.attempted, out.firstErr)
	}
	if out.units == 0 {
		return window{}, fmt.Errorf("no request completed in the window")
	}
	return out, nil
}

func (w window) report(metrics map[string]metric) *report {
	return &report{
		Correct:   w.failed == 0,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics:   metrics,
	}
}

// timed reports the end-to-end metrics.
func timed(op func(int) (int, error), clients int, d time.Duration, setupTimes []float64) (*report, error) {
	w, err := measure(op, clients, d)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests, %d units in %.2f s; cold starts %.4v s\n",
		w.attempted, w.units, w.elapsed.Seconds(), setupTimes)
	return w.report(map[string]metric{
		"op_p50_ms":       {w.latencyMS(0.50), "ms"},
		"op_p90_ms":       {w.latencyMS(0.90), "ms"},
		"units_per_s":     {float64(w.units) / w.elapsed.Seconds(), "1/s"},
		"cpu_us_per_unit": {float64(w.cpu) / 1e3 / float64(w.units), "us"},
		"setup_s":         {median(setupTimes), "s"},
	}), nil
}

// median returns the median of values, reordering them.
func median(values []float64) float64 {
	sort.Float64s(values)
	n := len(values)
	if n%2 == 1 {
		return values[n/2]
	}
	return (values[n/2-1] + values[n/2]) / 2
}

// latencyMS is the q-quantile of request latency in milliseconds.
func (w window) latencyMS(q float64) float64 {
	sort.Slice(w.lats, func(i, j int) bool { return w.lats[i] < w.lats[j] })
	return float64(quantile(w.lats, q)) / 1e6
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []time.Duration, q float64) time.Duration {
	i := int(q*float64(len(sorted)) + 0.5)
	if i > 0 {
		i--
	}
	return sorted[min(i, len(sorted)-1)]
}

// layers groups repository packages into the layers per-layer CPU time
// is reported under. Repository packages not listed count as harness:
// the campaign runner and the benchmark's own driver.
var layers = map[string]string{
	"intango/internal/netem":      "netem",
	"intango/internal/topo":       "netem",
	"intango/internal/tcpstack":   "tcpstack",
	"intango/internal/packet":     "packet",
	"intango/internal/core":       "core",
	"intango/internal/intang":     "core",
	"intango/internal/gfw":        "censor",
	"intango/internal/censor":     "censor",
	"intango/internal/middlebox":  "censor",
	"intango/internal/dpi":        "censor",
	"intango/internal/device":     "device",
	"intango/internal/device/uis": "device",
	"intango/internal/intangd":    "device",
	"intango/internal/appsim":     "device",
	"intango/internal/obs":        "obs",
	"gc":                          "gc",
	"runtime":                     "runtime",
}

var layerNames = []string{"netem", "tcpstack", "packet", "core", "censor", "device", "obs", "harness", "gc", "runtime"}

// traced reports per-layer metrics: the window runs under the CPU
// profiler at its default 100 Hz (at 400 Hz a third of the samples were
// lost against getrusage), and each sample is charged to the layer of
// the innermost repository frame on its stack.
func traced(op func(int) (int, error), clients int, d time.Duration, profile string) (*report, error) {
	var buf bytes.Buffer
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	w, err := measure(op, clients, d)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&after)

	if err := os.MkdirAll(filepath.Dir(profile), 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(profile, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		return nil, err
	}
	byPkg, total := attribute(samples)
	fmt.Fprintf(os.Stderr, "perfbench: CPU by package over %d units (%d samples, %.1f ms; profile %s)\n%s",
		w.units, len(samples), float64(total)/1e6, profile, formatAttribution(byPkg, total))

	byLayer := map[string]int64{}
	for pkg, nanos := range byPkg {
		layer, ok := layers[pkg]
		if !ok {
			layer = "harness"
		}
		byLayer[layer] += nanos
	}
	units := float64(w.units)
	metrics := map[string]metric{
		"cpu_total_us":         {float64(total) / 1e3 / units, "us"},
		"allocs_per_unit":      {float64(after.Mallocs-before.Mallocs) / units, "count"},
		"alloc_bytes_per_unit": {float64(after.TotalAlloc-before.TotalAlloc) / units, "B"},
	}
	for _, l := range layerNames {
		metrics["cpu_"+l+"_us"] = metric{float64(byLayer[l]) / 1e3 / units, "us"}
	}
	return w.report(metrics), nil
}

// processCPU returns the user plus system CPU time the process has used.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}
