package intangd

import (
	"net/http"
	"testing"
	"time"

	"intango/internal/device/uis"
	"intango/internal/obs"
	"intango/internal/packet"
)

// pinnedCensor is the pinned gfw2017 of `make intangd-smoke`.
const pinnedCensor = "tcb:evolved detect:keywords(ultrasurf) " +
	"react:reset(type1) react:reset(type2) react:block(dur=1m30s) " +
	"param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)"

// eventLog is a recorder tap that keeps the world's whole event stream;
// it runs under the world lock, as every recorder write does.
type eventLog []obs.Event

func (l *eventLog) RecordEvent(e obs.Event) { *l = append(*l, e) }

// TestCensoredFetchBoundsChallengeACKs: a passthrough fetch of the
// keyword is censored, and for the 90 s blocklist the censor answers
// every packet of the pair with reset volleys. The proxy's Linux 4.4
// server answers in-window resets with challenge ACKs, at most one per
// 500 ms of virtual time, so each censored flow costs the world a
// bounded number of events.
func TestCensoredFetchBoundsChallengeACKs(t *testing.T) {
	p, err := New(Config{Censor: pinnedCensor, Strategy: "pass", Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var log eventLog
	p.clk.Lock()
	p.rec.Tap(&log)
	p.clk.Unlock()
	cli := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	defer func() {
		cli.Close()
		p.Close()
	}()
	hc := &http.Client{
		Transport: &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true},
		Timeout:   15 * time.Second,
	}
	if resp, err := hc.Get("http://origin.example/search?q=ultrasurf"); err == nil {
		resp.Body.Close()
		t.Fatalf("censored fetch succeeded: %d", resp.StatusCode)
	}
	// Let the blocklist run on: an unbounded loop keeps going.
	p.clk.Advance(5 * time.Second)

	p.clk.Lock()
	defer p.clk.Unlock()
	challenged := map[uint32]bool{}
	for _, e := range log {
		if e.Subsys == "tcpstack" && (e.Verb == "rst-in-window-challenge-ack" || e.Verb == "syn-challenge-ack") {
			challenged[e.Pkt] = true
		}
	}
	var at []time.Duration
	for _, e := range log {
		if e.Subsys == "netem" && e.Verb == "send" && e.Detail == "server →cli" && challenged[e.Parent] {
			at = append(at, e.T)
		}
	}
	if len(at) == 0 {
		t.Fatal("the server sent no challenge ACK; the loop this bounds never started")
	}
	for i := 1; i < len(at); i++ {
		if gap := at[i] - at[i-1]; gap < 500*time.Millisecond {
			t.Fatalf("server challenge ACKs at %v and %v, %v apart; want at most one per 500ms (all: %v)",
				at[i-1], at[i], gap, at)
		}
	}
}
