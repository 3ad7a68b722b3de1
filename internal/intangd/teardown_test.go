package intangd

import (
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"intango/internal/device/uis"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// TestServedConnectionsClose: after a run of fetches through the
// proxy, each on a new connection, the origin holds no connection in
// CLOSE_WAIT and the client's stack holds none at all once virtual time
// passes TIME_WAIT. The origin closes its half when the client's FIN
// follows a served request, so neither side keeps a connection until
// its ports wrap.
func TestServedConnectionsClose(t *testing.T) {
	p, err := New(Config{Censor: pinnedCensor, Strategy: "teardown-reversal", Seed: 7, TimeScale: 20})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	cli := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	t.Cleanup(func() {
		cli.Close()
		p.Close()
	})
	tr := &http.Transport{DialContext: cli.DialContext, DisableKeepAlives: true}
	hc := &http.Client{Transport: tr, Timeout: 15 * time.Second}
	const fetches = 30
	for i := 0; i < fetches; i++ {
		resp, err := hc.Get(fmt.Sprintf("http://origin.example/search?q=ultrasurf&id=%d", i))
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// The transport closes a connection after its body is read, on a
	// goroutine of its own: keep skipping virtual time until both ends
	// have seen the last close through.
	tr.CloseIdleConnections()
	var closeWait int
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		p.clk.Advance(10 * time.Minute)
		p.clk.Lock()
		closeWait = 0
		for port := 32768; port < 32768+fetches; port++ {
			if c, ok := p.server.Conn(80, p.clientAddr, uint16(port)); ok && c.State() == tcpstack.CloseWait {
				closeWait++
			}
		}
		p.clk.Unlock()
		if closeWait == 0 && cli.Conns() == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
	}
	t.Errorf("after %d fetches and virtual time past TIME_WAIT: %d origin connections in CLOSE_WAIT, %d client connections open; want 0 and 0",
		fetches, closeWait, cli.Conns())
}
