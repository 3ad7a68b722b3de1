package intangd_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"intango/internal/core"
	"intango/internal/intangd"
)

// FuzzStrategyPOST posts arbitrary bodies to one proxy's /strategy
// endpoint over loopback. Every answer must be 200 or 400: a 400 leaves
// the strategy in force unchanged, and a 200 returns the JSON of the
// strategy now in force. `make check` runs the seed corpus; run
// `go test -fuzz=FuzzStrategyPOST ./internal/intangd` to explore.
func FuzzStrategyPOST(f *testing.F) {
	for _, e := range core.Registry() {
		f.Add([]byte(e.Name))
		f.Add([]byte(e.Spec))
	}
	for _, s := range []string{
		"", "none", "pass", " \t pass\r\n",
		"on:first-payload[teardown(flags=rst,disc=ttl)",
		"on:first-payload[inject(",
		"on:handshake[inject(syn)]\r\non:first-payload[\n\tteardown(flags=rst,\r\n disc=ttl)\n]\n",
		"on:first-payload[inject(,)]",
		"teardown-rst/tll",
	} {
		f.Add([]byte(s))
	}
	// Bodies past the plane's 4 KiB read limit arrive truncated.
	f.Add([]byte(strings.Repeat("on:payload[delay(ms=1)] ", 200)))
	f.Add([]byte("pass" + strings.Repeat(" ", 5000)))

	p, err := intangd.New(intangd.Config{Censor: testCensor, Seed: 5})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	stop, bound, err := p.ServePlane("127.0.0.1:0")
	if err != nil {
		p.Close()
		f.Fatalf("ServePlane: %v", err)
	}
	f.Cleanup(func() {
		stop()
		p.Close()
	})
	url := "http://" + bound + "/strategy"
	hc := &http.Client{Timeout: 10 * time.Second}

	f.Fuzz(func(t *testing.T, body []byte) {
		before := p.Strategy()
		resp, err := hc.Post(url, "text/plain", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("POST %q: %v", body, err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("POST %q: reading answer: %v", body, err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
			// Marshalling one string field cannot fail.
			want, _ := json.Marshal(struct {
				Strategy string `json:"strategy"`
			}{p.Strategy()})
			if string(got) != string(want)+"\n" {
				t.Fatalf("POST %q: 200 answered %q, want %s", body, got, want)
			}
		case http.StatusBadRequest:
			if after := p.Strategy(); after != before {
				t.Fatalf("POST %q: 400 %q, yet the strategy moved from %q to %q", body, got, before, after)
			}
		default:
			t.Fatalf("POST %q: status %d %q, want 200 or 400", body, resp.StatusCode, got)
		}
	})
}
