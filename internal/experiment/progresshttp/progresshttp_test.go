package progresshttp_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"intango/internal/experiment"
	"intango/internal/experiment/progresshttp"
	"intango/internal/obs"
)

// TestServe drives the HTTP endpoint directly against fixed feeds.
func TestServe(t *testing.T) {
	snap := experiment.ProgressSnapshot{
		Done: 3, Total: 4, Success: 2, Failure2: 1,
		Strategies: []experiment.StrategyProgress{
			{Strategy: "a", Done: 2, Success: 1},
			{Strategy: `q"uo\te` + "\n", Done: 1},
		},
	}
	series := obs.TimeSeriesSnapshot{Points: []obs.SeriesPoint{
		{T: 0, Values: map[string]float64{"done": 0}},
		{T: 0.5, Values: map[string]float64{"done": 3}},
	}}
	feeds := experiment.ProgressFeeds{
		Snapshot: func() experiment.ProgressSnapshot { return snap },
		Series:   func() experiment.SeriesView { return experiment.SeriesView{TimeSeriesSnapshot: series} },
	}
	stop, addr := progresshttp.Serve(feeds, nil, "127.0.0.1:0")
	if addr == "" {
		t.Fatal("no endpoint bound")
	}
	defer stop()

	resp, err := http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	var got experiment.ProgressSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.Done != 3 || got.Total != 4 {
		t.Fatalf("http snapshot = %+v", got)
	}

	resp, err = http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"# TYPE trials_done gauge",
		"trials_done 3",
		"trials_total 4",
		`strategy_success{strategy="a"} 1`,
		`strategy_done{strategy="q\"uo\\te\n"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + addr + "/timeseries")
	if err != nil {
		t.Fatal(err)
	}
	var ts obs.TimeSeriesSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&ts); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(ts.Points) != 2 || ts.Points[1].Values["done"] != 3 {
		t.Fatalf("timeseries = %+v", ts)
	}

	// Without a journal there is no shard plane.
	for _, path := range []string{"/shards", "/manifest"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s served %d without a journal", path, resp.StatusCode)
		}
	}
}

// TestServeBindFailure: an unusable address degrades to a diagnostic.
func TestServeBindFailure(t *testing.T) {
	var buf strings.Builder
	feeds := experiment.ProgressFeeds{
		Snapshot: func() experiment.ProgressSnapshot { return experiment.ProgressSnapshot{} },
	}
	stop, addr := progresshttp.Serve(feeds, &buf, "256.0.0.1:0")
	if stop != nil || addr != "" {
		t.Fatalf("bind to bogus address succeeded: %q", addr)
	}
	if !strings.Contains(buf.String(), "unavailable") {
		t.Fatalf("missing diagnostic, got %q", buf.String())
	}
}

// TestCampaignEndpointWiring: importing this package is all it takes —
// a campaign with HTTPAddr set binds the endpoint through the
// registered hook.
func TestCampaignEndpointWiring(t *testing.T) {
	r := experiment.NewRunner(42)
	r.Workers = 2
	r.Progress = &experiment.ProgressOptions{Interval: time.Hour, HTTPAddr: "127.0.0.1:0"}
	experiment.RunTable1Parallel(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 1})
	if r.ProgressAddr() == "" {
		t.Fatal("campaign never bound the progress endpoint")
	}
}

// TestTimeseriesMidCampaign scrapes /timeseries while a campaign is
// still running and asserts the sampler has produced at least the
// baseline plus one interval sample.
func TestTimeseriesMidCampaign(t *testing.T) {
	r := experiment.NewRunner(7)
	r.Workers = 1
	r.Progress = &experiment.ProgressOptions{Interval: time.Millisecond, HTTPAddr: "127.0.0.1:0"}

	done := make(chan struct{})
	go func() {
		defer close(done)
		experiment.RunTable1Parallel(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 2})
	}()

	// Wait for the endpoint to bind, then poll until two samples show.
	var addr string
	for i := 0; i < 1000 && addr == ""; i++ {
		addr = r.ProgressAddr()
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		<-done
		t.Fatal("campaign never bound the progress endpoint")
	}
	deadline := time.Now().Add(10 * time.Second)
	var ts obs.TimeSeriesSnapshot
	for time.Now().Before(deadline) {
		resp, err := http.Get("http://" + addr + "/timeseries")
		if err != nil {
			break // campaign finished and closed the endpoint
		}
		err = json.NewDecoder(resp.Body).Decode(&ts)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode /timeseries: %v", err)
		}
		if len(ts.Points) >= 2 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	<-done
	if len(ts.Points) < 2 {
		// The campaign may have outrun the scraper; the retained series
		// must still carry the baseline and closing samples.
		ts = r.ProgressSeries()
	}
	if len(ts.Points) < 2 {
		t.Fatalf("timeseries has %d points, want >= 2", len(ts.Points))
	}
	if ts.Points[0].T > ts.Points[len(ts.Points)-1].T {
		t.Fatal("timeseries not in time order")
	}
	if _, ok := ts.Points[0].Values["done"]; !ok {
		t.Fatalf("sample missing done value: %+v", ts.Points[0])
	}
}

// TestServeShards drives the journaled plane against fixed feeds:
// /shards (the shard rows), /progress, /metrics (shard-labelled
// families plus shard rollups), /timeseries (per-shard curves beside
// the campaign curve), and /manifest.
func TestServeShards(t *testing.T) {
	snap := experiment.ProgressSnapshot{
		Done: 13, Total: 40, Success: 9,
		Shards: []experiment.ShardProgress{
			{ShardPlan: experiment.ShardPlan{ID: 0, JobStart: 0, JobEnd: 10}, State: "done", Cursor: 10, Done: 10, Success: 7, Frames: 2},
			{ShardPlan: experiment.ShardPlan{ID: 1, JobStart: 10, JobEnd: 20}, State: "running", Cursor: 13, Done: 3, Success: 2, Frames: 1, LastFrameAgeSec: 0.5, Resumed: true, Replayed: 2},
		},
	}
	feeds := experiment.ProgressFeeds{
		Snapshot: func() experiment.ProgressSnapshot { return snap },
		Series: func() experiment.SeriesView {
			return experiment.SeriesView{
				TimeSeriesSnapshot: obs.TimeSeriesSnapshot{Points: []obs.SeriesPoint{{T: 0, Values: map[string]float64{"done": 0}}}},
				Shards: map[string]obs.TimeSeriesSnapshot{
					"0": {Points: []obs.SeriesPoint{{T: 0.1, Values: map[string]float64{"done": 10}}}},
				},
			}
		},
		Manifest: func() experiment.Manifest {
			return experiment.Manifest{Version: 2, Campaign: "table1", Seed: 42, TotalJobs: 40}
		},
	}
	stop, addr := progresshttp.Serve(feeds, nil, "127.0.0.1:0")
	if addr == "" {
		t.Fatal("no plane bound")
	}
	defer stop()

	var rows []experiment.ShardProgress
	getJSON(t, addr, "/shards", &rows)
	if len(rows) != 2 || rows[1].State != "running" || !rows[1].Resumed || rows[1].JobStart != 10 {
		t.Fatalf("/shards = %+v", rows)
	}
	var prog experiment.ProgressSnapshot
	getJSON(t, addr, "/progress", &prog)
	if prog.Done != 13 || prog.Total != 40 || len(prog.Shards) != 2 {
		t.Fatalf("/progress = %+v", prog)
	}
	var series experiment.SeriesView
	getJSON(t, addr, "/timeseries", &series)
	if len(series.Points) != 1 || len(series.Shards["0"].Points) != 1 {
		t.Fatalf("/timeseries = %+v", series)
	}
	var man experiment.Manifest
	getJSON(t, addr, "/manifest", &man)
	if man.Campaign != "table1" || man.Seed != 42 {
		t.Fatalf("/manifest = %+v", man)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fleet_shards 2", "fleet_shards_done 1",
		`shard_done{shard="1"} 3`, `shard_cursor{shard="0"} 10`,
		`shard_last_frame_age_seconds{shard="1"} 0.5`,
		`shard_state{shard="1",state="running"} 1`,
		"trials_total 40",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func getJSON(t *testing.T, addr, path string, into any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s content type %q", path, ct)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
}

// TestFleetPlaneLiveCampaign: a journaled campaign with HTTPAddr set
// binds the plane through the init-registered hook; its metrics
// exposition carries shard labels — scraped live, mid-campaign, via
// the OnFrame hook — and /manifest serves the cube's provenance.
func TestFleetPlaneLiveCampaign(t *testing.T) {
	r := experiment.NewRunner(42)
	r.Workers = 1
	r.Progress = &experiment.ProgressOptions{Interval: time.Hour, HTTPAddr: "127.0.0.1:0"}
	type scrape struct {
		metrics string
		man     experiment.Manifest
	}
	scraped := make(chan scrape, 1)
	opts := experiment.CheckpointOptions{
		Dir: t.TempDir(), Shards: 2, CheckpointEvery: 8,
		OnFrame: func(_, total int) error {
			if total != 1 {
				return nil
			}
			// A worker goroutine: report with Errorf, never Fatal.
			var s scrape
			resp, err := http.Get("http://" + r.ProgressAddr() + "/metrics")
			if err == nil {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				s.metrics = string(body)
				resp, err = http.Get("http://" + r.ProgressAddr() + "/manifest")
			}
			if err == nil {
				err = json.NewDecoder(resp.Body).Decode(&s.man)
				resp.Body.Close()
			}
			if err != nil {
				t.Errorf("mid-campaign scrape: %v", err)
				return nil
			}
			scraped <- s
			return nil
		},
	}
	res, err := r.RunCube(experiment.Table1Cube(r, experiment.Scale{VPs: 1, Servers: 1, Trials: 1}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials == 0 {
		t.Fatal("campaign ran no trials")
	}
	select {
	case s := <-scraped:
		for _, want := range []string{"fleet_shards 2", `shard_cursor{shard="0"}`, "# TYPE shard_done gauge", "trials_total"} {
			if !strings.Contains(s.metrics, want) {
				t.Errorf("live /metrics missing %q:\n%s", want, s.metrics)
			}
		}
		if s.man.Campaign != "table1" || len(s.man.Strategies) == 0 || s.man.Strategies[0].Spec == "" {
			t.Errorf("live /manifest = %+v", s.man)
		}
	default:
		t.Fatal("no mid-campaign scrape happened")
	}
}

// TestFleetPlaneLiveSnapshotsConsistent: every /progress scrape of a
// running journaled campaign reads one state. Each checkpoint frame
// scrapes once from its worker while another goroutine polls
// throughout, and every snapshot must agree with itself: done and
// success equal across the totals, the strategies and the shard rows,
// each shard's done accounted for by its cursor, and the outcome mix
// summing to done.
func TestFleetPlaneLiveSnapshotsConsistent(t *testing.T) {
	r := experiment.NewRunner(7)
	r.Workers = 2
	r.Progress = &experiment.ProgressOptions{Interval: time.Millisecond, HTTPAddr: "127.0.0.1:0"}
	var mu sync.Mutex
	mid := 0
	// scrape checks one live snapshot; it runs on worker goroutines, so
	// it reports with Errorf, never Fatal. It returns false once the
	// plane is down.
	scrape := func() bool {
		resp, err := http.Get("http://" + r.ProgressAddr() + "/progress")
		if err != nil {
			return false
		}
		var s experiment.ProgressSnapshot
		err = json.NewDecoder(resp.Body).Decode(&s)
		resp.Body.Close()
		if err != nil {
			return false // shut down mid-response
		}
		if err := consistent(s); err != nil {
			t.Errorf("live snapshot: %v", err)
		}
		if s.Done > 0 && s.Done < s.Total {
			mu.Lock()
			mid++
			mu.Unlock()
		}
		return true
	}
	done := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-done:
				return
			default:
			}
			if r.ProgressAddr() != "" && !scrape() {
				return
			}
		}
	}()
	opts := experiment.CheckpointOptions{
		Dir: t.TempDir(), Shards: 3, CheckpointEvery: 4,
		OnFrame: func(_, _ int) error {
			scrape()
			return nil
		},
	}
	_, err := r.RunCube(experiment.Table1Cube(r, experiment.Scale{VPs: 1, Servers: 2, Trials: 1}), opts)
	close(done)
	<-polled
	if err != nil {
		t.Fatal(err)
	}
	if mid == 0 {
		t.Fatal("no mid-campaign scrape happened")
	}
	final, _ := r.FinalProgress()
	if err := consistent(final); err != nil || final.Done != final.Total {
		t.Fatalf("final snapshot %+v: %v", final, err)
	}
}

// consistent checks that a snapshot's totals, strategies and shard rows
// count the same trials.
func consistent(s experiment.ProgressSnapshot) error {
	var strategies, shards experiment.StrategyProgress
	for _, sp := range s.Strategies {
		strategies.Done += sp.Done
		strategies.Success += sp.Success
	}
	for _, sh := range s.Shards {
		shards.Done += sh.Done
		shards.Success += sh.Success
		if int64(sh.Cursor-sh.JobStart) != sh.Done {
			return fmt.Errorf("shard %d: cursor %d from %d, done %d", sh.ID, sh.Cursor, sh.JobStart, sh.Done)
		}
	}
	if len(s.Shards) == 0 || strategies.Done != s.Done || shards.Done != s.Done ||
		strategies.Success != s.Success || shards.Success != s.Success ||
		s.Success+s.Failure1+s.Failure2 != s.Done {
		return fmt.Errorf("%d shards; done %d, strategies %d, shards %d; success %d, strategies %d, shards %d; outcomes %d+%d+%d",
			len(s.Shards), s.Done, strategies.Done, shards.Done, s.Success, strategies.Success, shards.Success,
			s.Success, s.Failure1, s.Failure2)
	}
	return nil
}

// TestFleetPlaneConcurrentScrapeShutdown hammers every endpoint of the
// journaled plane from several goroutines while the campaign runs to
// completion and the executor tears the server down — the race
// detector's view of the scrape/shutdown window. Requests failing after
// shutdown are fine; data races and panics are not.
func TestFleetPlaneConcurrentScrapeShutdown(t *testing.T) {
	r := experiment.NewRunner(7)
	r.Workers = 2
	r.Progress = &experiment.ProgressOptions{Interval: time.Millisecond, HTTPAddr: "127.0.0.1:0"}
	cube := experiment.Table1Cube(r, experiment.Scale{VPs: 1, Servers: 2, Trials: 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := r.RunCube(cube, experiment.CheckpointOptions{Dir: t.TempDir(), Shards: 3, CheckpointEvery: 4}); err != nil {
			t.Errorf("journaled run: %v", err)
		}
	}()
	var addr string
	for i := 0; i < 2000 && addr == ""; i++ {
		addr = r.ProgressAddr()
		time.Sleep(time.Millisecond)
	}
	if addr == "" {
		<-done
		t.Skip("campaign finished before the plane bound")
	}
	var wg sync.WaitGroup
	for _, path := range []string{"/shards", "/progress", "/metrics", "/timeseries", "/manifest"} {
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(p string) {
				defer wg.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					resp, err := http.Get("http://" + addr + p)
					if err != nil {
						return // server shut down mid-scrape: expected
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}(path)
		}
	}
	<-done
	wg.Wait()
}
