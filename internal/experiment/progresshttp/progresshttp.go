// Package progresshttp serves live campaign-progress snapshots over
// HTTP: /progress as JSON, /metrics in Prometheus exposition format,
// and /timeseries as the sampled campaign time-series window (JSON).
// For a journaled campaign the same plane adds /shards (the per-shard
// state machine) and /manifest (the provenance document), /metrics
// gains the shard-labelled families, and /timeseries carries each
// shard's curve stitched across kills.
//
// It registers itself with the experiment harness from init, so
// enabling the endpoints is just an import:
//
//	import _ "intango/internal/experiment/progresshttp"
//
// The split exists so internal/experiment never links net/http —
// the http package's init-time heap globals would otherwise be marked
// by every GC cycle of every binary using the harness, a measurable
// tax on the trial hot path (BenchmarkTrialHotPath).
package progresshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"

	"intango/internal/experiment"
)

func init() {
	experiment.RegisterProgressServer(Serve)
}

// Serve binds addr and serves feeds until stop is called: /progress
// (snapshot JSON), /metrics (Prometheus exposition), /timeseries
// (sampled series JSON), and — when feeds carry a Manifest, i.e. a
// checkpoint journal is attached — /shards (shard rows JSON) and
// /manifest. A bind failure is reported on diag (when set) and returns
// a nil stop with an empty bound address: progress serving must never
// abort a campaign.
func Serve(feeds experiment.ProgressFeeds, diag io.Writer, addr string) (stop func(), bound string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		if diag != nil {
			fmt.Fprintf(diag, "progress: http endpoint unavailable: %v\n", err)
		}
		return nil, ""
	}
	asJSON := func(get func() any) http.HandlerFunc {
		return func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(get())
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/progress", asJSON(func() any { return feeds.Snapshot() }))
	mux.HandleFunc("/timeseries", asJSON(func() any { return feeds.Series() }))
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		io.WriteString(w, feeds.Snapshot().MetricsText())
	})
	if feeds.Manifest != nil {
		mux.HandleFunc("/shards", asJSON(func() any { return feeds.Snapshot().Shards }))
		mux.HandleFunc("/manifest", asJSON(func() any { return feeds.Manifest() }))
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return func() { _ = srv.Close() }, ln.Addr().String()
}
