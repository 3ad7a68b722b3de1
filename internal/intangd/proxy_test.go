package intangd_test

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/device/uis"
	"intango/internal/intangd"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// testCensor is the measured gfw2017 with every sampled probability
// pinned: detection never misses, RSTs always tear the TCB down, and
// reassembly is first-wins — so one fetch decides the outcome.
const testCensor = "tcb:evolved detect:keywords(ultrasurf) " +
	"react:reset(type1) react:reset(type2) react:block(dur=1m30s) " +
	"param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)"

// newWorld boots a proxy against the deterministic censor and hangs a
// userspace stack plus a stock net/http client off its client device.
func newWorld(t *testing.T, strategy string) (*intangd.Proxy, *http.Client) {
	t.Helper()
	p, err := intangd.New(intangd.Config{
		Censor:   testCensor,
		Strategy: strategy,
		Seed:     7,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	hc := &http.Client{
		Transport: &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true},
		Timeout:   15 * time.Second,
	}
	t.Cleanup(func() {
		cli.Close()
		p.Close()
	})
	return p, hc
}

// TestProxyBlocksSensitiveFetch is the daemon half of the paper's
// baseline: a real net/http GET carrying the censored keyword, dialed
// through the userspace stack into intangd with no strategy, dies to
// the censor's injected resets.
func TestProxyBlocksSensitiveFetch(t *testing.T) {
	p, hc := newWorld(t, "")

	resp, err := hc.Get("http://origin.example/search?q=ultrasurf")
	if err == nil {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("sensitive GET succeeded without a strategy: %d %q", resp.StatusCode, body)
	}

	if got := p.CensorStat("inject-type1") + p.CensorStat("inject-type2"); got == 0 {
		t.Errorf("censor injected no resets (stats: type1=%d type2=%d)",
			p.CensorStat("inject-type1"), p.CensorStat("inject-type2"))
	}
	views := p.FlowViews()
	reset := false
	for _, v := range views {
		if v.GotRST {
			reset = true
		}
	}
	if !reset {
		t.Errorf("no flow marked got_rst; flows: %+v", views)
	}
}

// TestProxyEvadesWithStrategy is the payoff: the same real client, the
// same censor, but the daemon wraps each flow in the Table 4
// teardown-reversal strategy — and the keyword fetch completes.
func TestProxyEvadesWithStrategy(t *testing.T) {
	p, hc := newWorld(t, "teardown-reversal")

	resp, err := hc.Get("http://origin.example/search?q=ultrasurf")
	if err != nil {
		t.Fatalf("GET through teardown-reversal: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status: got %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "it works") {
		t.Errorf("body: got %q", body)
	}

	views := p.FlowViews()
	if len(views) == 0 {
		t.Fatalf("flow table empty after fetch")
	}
	found := false
	for _, v := range views {
		if v.Strategy == "teardown-reversal" && v.OutPkts > 0 && v.InPkts > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no flow recorded under teardown-reversal; flows: %+v", views)
	}
}

// TestProxyStrategySwitchAndBlockWindow drives the live-switch loop:
// evade, flip the daemon to passthrough mid-run, get censored, then
// skip the 90-second pair blocklist on the virtual clock and evade
// again after flipping back.
func TestProxyStrategySwitchAndBlockWindow(t *testing.T) {
	p, hc := newWorld(t, "teardown-reversal")

	if _, err := hc.Get("http://origin.example/search?q=ultrasurf"); err != nil {
		t.Fatalf("initial evaded GET: %v", err)
	}

	if err := p.SetStrategy("pass"); err != nil {
		t.Fatalf("SetStrategy(pass): %v", err)
	}
	if got := p.Strategy(); got != "pass" {
		t.Fatalf("Strategy() = %q", got)
	}
	if _, err := hc.Get("http://origin.example/search?q=ultrasurf"); err == nil {
		t.Fatalf("sensitive GET succeeded on passthrough")
	}

	// The censored pair is now on the 90s blocklist; skip it on the
	// virtual clock instead of waiting out wall time.
	p.ClientDevice().Clock().Advance(2 * time.Minute)

	if err := p.SetStrategy("teardown-reversal"); err != nil {
		t.Fatalf("SetStrategy back: %v", err)
	}
	resp, err := hc.Get("http://origin.example/search?q=ultrasurf")
	if err != nil {
		t.Fatalf("GET after block window: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status after block window: got %d", resp.StatusCode)
	}
}

// TestResolveStrategy covers the three reference forms the daemon and
// its plane accept: the passthrough spellings show as "pass", a builtin
// name and raw spec text as given, and a reference that is neither is
// refused and leaves the strategy as it was.
func TestResolveStrategy(t *testing.T) {
	p, err := intangd.New(intangd.Config{Censor: testCensor, Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer p.Close()
	const spec = "on:first-payload[teardown(flags=rst,disc=ttl)]"
	for _, tc := range []struct{ ref, want string }{
		{"", "pass"}, {"none", "pass"}, {"pass", "pass"},
		{"teardown-reversal", "teardown-reversal"},
		{spec, spec},
	} {
		if err := p.SetStrategy(tc.ref); err != nil || p.Strategy() != tc.want {
			t.Errorf("SetStrategy(%q): %v, Strategy() = %q, want %q", tc.ref, err, p.Strategy(), tc.want)
		}
	}
	if err := p.SetStrategy("no-such-strategy-!!!"); err == nil || p.Strategy() != spec {
		t.Errorf("garbage ref: %v, Strategy() = %q", err, p.Strategy())
	}
}

// TestReusedClientTupleEvades: two keyword fetches from one client
// 4-tuple, which a long-running daemon sees once a client's ephemeral
// ports wrap, both evade. The second SYN opens a new flow in the
// engine, so its strategy starts afresh, and a new record in the flow
// table. The client is a bare tcpstack on the world's clock, which
// can pin its local port; the fetch waits under the clock's lock on a
// cond of its own, which the client's pump signals after each delivery.
func TestReusedClientTupleEvades(t *testing.T) {
	p, err := intangd.New(intangd.Config{Censor: testCensor, Strategy: "teardown-reversal", Seed: 7})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	dev := p.ClientDevice()
	clk := dev.Clock()
	delivered := sync.NewCond(&clk.Mutex)
	cli := tcpstack.NewStack(p.ClientAddr(), tcpstack.Linux44(), clk.Sim)
	cli.Send = func(pkt *packet.Packet) { _ = dev.WritePacket(pkt) }
	pumped := make(chan struct{})
	go func() {
		defer close(pumped)
		for {
			pkt, err := dev.ReadPacket()
			if err != nil {
				return
			}
			clk.Lock()
			cli.Deliver(pkt)
			delivered.Broadcast()
			clk.Unlock()
		}
	}()
	t.Cleanup(func() {
		dev.Close()
		<-pumped
		p.Close()
	})

	fetch := func() error {
		clk.Lock()
		defer clk.Unlock()
		deadline := time.Now().Add(10 * time.Second)
		wait := func(done func() bool) error {
			for !done() {
				if time.Now().After(deadline) {
					return errors.New("timed out")
				}
				delivered.Wait()
			}
			return nil
		}
		c := cli.ConnectFrom(40000, p.ServerAddr(), 80)
		if err := wait(func() bool { return c.State() != tcpstack.SynSent && c.State() != tcpstack.SynRecv }); err != nil {
			return fmt.Errorf("handshake: %w", err)
		}
		if c.State() != tcpstack.Established {
			return fmt.Errorf("handshake ended in %v", c.State())
		}
		c.Write(appsim.HTTPRequest("origin.example", "/search?q=ultrasurf"))
		if err := wait(func() bool { return c.GotRST || appsim.HTTPResponseComplete(c.Received()) }); err != nil {
			return fmt.Errorf("response: %w", err)
		}
		if c.GotRST {
			return errors.New("reset")
		}
		c.Close()
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := fetch(); err != nil {
			t.Fatalf("fetch %d from port 40000: %v (censor detections: %d)", i, err, p.CensorStat("detect"))
		}
	}
	if got := p.Registry().Value("intangd.flows-opened"); got != 2 {
		t.Errorf("flows-opened = %d after two connections on one tuple, want 2", got)
	}
	if got := p.CensorStat("detect"); got != 0 {
		t.Errorf("censor detections = %d, want 0", got)
	}
}
