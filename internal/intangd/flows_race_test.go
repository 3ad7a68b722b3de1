package intangd_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/device/uis"
	"intango/internal/intangd"
)

// TestProxyConcurrentFlowsWithPlaneScrape runs the whole daemon hot:
// concurrent client connections opening, transferring and closing
// through the engine while /flows and /metrics are scraped over real
// HTTP mid-traffic, then a short idle timeout expires the leftovers.
// Every one of them takes the world lock — the clients' stack, the
// proxy's packet pumps, the clock's pump, the expiry loop and the
// plane — so under the race detector this is the test of the one lock.
func TestProxyConcurrentFlowsWithPlaneScrape(t *testing.T) {
	p, err := intangd.New(intangd.Config{
		Censor:      testCensor,
		Strategy:    "teardown-reversal",
		Seed:        11,
		IdleTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli := uis.New(p.ClientDevice(), uis.Config{Addr: p.ClientAddr(), Seed: 3})
	stopPlane, bound, err := p.ServePlane("127.0.0.1:0")
	if err != nil {
		t.Fatalf("ServePlane: %v", err)
	}
	t.Cleanup(func() {
		stopPlane()
		cli.Close()
		p.Close()
	})

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				conn, err := cli.Dial(p.ServerAddr(), 80)
				if err != nil {
					errs <- fmt.Errorf("client %d dial: %w", c, err)
					return
				}
				conn.SetDeadline(time.Now().Add(10 * time.Second))
				// Innocuous URI: the flows exercise the engine without
				// tripping the censor's pair blocklist mid-hammer.
				if _, err := conn.Write(appsim.HTTPRequest("origin.example", fmt.Sprintf("/c%d/%d", c, i))); err != nil {
					errs <- fmt.Errorf("client %d write: %w", c, err)
					conn.Close()
					return
				}
				var got []byte
				buf := make([]byte, 2048)
				for !appsim.HTTPResponseComplete(got) {
					n, err := conn.Read(buf)
					if err != nil {
						errs <- fmt.Errorf("client %d read (%d bytes so far): %w", c, len(got), err)
						conn.Close()
						return
					}
					got = append(got, buf[:n]...)
				}
				conn.Close()
			}
		}(c)
	}

	// Mid-traffic plane scrapes, interleaved with the clients.
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for i := 0; i < 20; i++ {
			resp, err := http.Get("http://" + bound + "/flows")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			resp, err = http.Get("http://" + bound + "/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	<-scrapeDone

	// The daemon saw every flow.
	resp, err := http.Get("http://" + bound + "/flows")
	if err != nil {
		t.Fatalf("final /flows: %v", err)
	}
	var dump struct {
		Count int                `json:"count"`
		Flows []intangd.FlowView `json:"flows"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dump); err != nil {
		t.Fatalf("decode /flows: %v", err)
	}
	resp.Body.Close()
	for _, v := range dump.Flows {
		if v.Strategy != "teardown-reversal" {
			t.Errorf("flow %s recorded strategy %q", v.Tuple, v.Strategy)
		}
	}

	// Idle expiry drains the table (and the engine's flow map with it).
	deadline := time.Now().Add(10 * time.Second)
	for len(p.FlowViews()) > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("flows never expired: %d live", len(p.FlowViews()))
		}
		time.Sleep(50 * time.Millisecond)
	}
}
