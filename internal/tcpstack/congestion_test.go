package tcpstack

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/netem"
	"intango/internal/obs"
	"intango/internal/packet"
)

// TestRetxTimerAnchorsOldestSegment is the regression test for the
// re-arm bug: armRetx used to restart the timer on every sendData, so
// a steady stream of writes pushed the oldest unacked segment's RTO
// out indefinitely. The timer must stay anchored to the oldest
// outstanding segment.
func TestRetxTimerAnchorsOldestSegment(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)

	// Drop exactly the first data-carrying segment on its way to the
	// server; everything else is delivered.
	dropped := false
	p.Server = netem.EndpointFunc(func(pkt *packet.Packet) {
		if !dropped && pkt.TCP != nil && len(pkt.Payload) > 0 {
			dropped = true
			return
		}
		srv.Deliver(pkt)
	})

	t0 := sim.Now()
	c.Write([]byte("first-segment"))
	// Two follow-up writes inside one RTO: enough to keep re-arming
	// the buggy timer, too few dup ACKs to trigger fast retransmit.
	sim.At(50*time.Millisecond, func() { c.Write([]byte("second")) })
	sim.At(100*time.Millisecond, func() { c.Write([]byte("third")) })
	sim.RunFor(2 * time.Second)

	if got := string(sc.Received()); got != "first-segmentsecondthird" {
		t.Fatalf("server received %q", got)
	}
	if !dropped {
		t.Fatal("test never dropped a segment")
	}
	// The lost segment retransmits one RTO (200ms) after it was first
	// sent, not one RTO after the last write (300ms+).
	firstRTO := sc.FirstDataAt - t0
	if firstRTO <= 0 || firstRTO > 280*time.Millisecond {
		t.Fatalf("first in-order delivery after %v, want ~1 RTO (200ms+path)", firstRTO)
	}
}

// TestZeroWindowProbe is the regression test for the dead persist
// path: with the peer's window closed the sender must probe with one
// byte until the window reopens, then resume the transfer.
func TestZeroWindowProbe(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	cli.Obs = obs.New(obs.NewRegistry(), nil)
	c, sc := establish(t, sim, cli, srv)

	// Server closes its receive window and advertises it.
	sc.rcvWnd = 0
	sc.Write([]byte("w"))
	sim.RunFor(50 * time.Millisecond)
	if c.peerWnd != 0 {
		t.Fatalf("client peerWnd = %d, want 0", c.peerWnd)
	}

	payload := bytes.Repeat([]byte("z"), 500)
	c.Write(payload)
	sim.RunFor(300 * time.Millisecond)
	if got := sc.Received(); len(got) != 0 {
		t.Fatalf("server received %d bytes through a closed window", len(got))
	}
	if n := cli.Obs.Registry().Value("tcpstack.zero-window-probe"); n == 0 {
		t.Fatal("no zero-window probes sent while window closed")
	}

	// Reopen: the next probe's ACK advertises the window and the
	// transfer completes.
	sc.rcvWnd = srv.Profile.WindowSize
	sim.RunFor(5 * time.Second)
	if got := sc.Received(); !bytes.Equal(got, payload) {
		t.Fatalf("server received %d bytes after reopen, want %d", len(got), len(payload))
	}
}

// TestRTOBackoffCapped is the regression test for unbounded RTO
// doubling: exponential backoff must clamp at MaxRTO.
func TestRTOBackoffCapped(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	cli.Obs = obs.New(obs.NewRegistry(), nil)
	c, _ := establish(t, sim, cli, srv)

	// Six doublings from the 200ms floor never reach the ceiling, so
	// start from a sampled RTO of seconds, then make the path go dark.
	c.rto = 6 * time.Second
	p.Server = netem.EndpointFunc(func(*packet.Packet) {})
	c.Write([]byte("x"))
	sim.RunFor(300 * time.Second)
	// Capped at 60s, the seventh timeout gives up 270s after the write;
	// uncapped doubling would wait 762s.
	if c.State() != Closed || c.AbortReason != "retransmission-limit" {
		t.Fatalf("state=%v reason=%q, want capped backoff to give up within 300s",
			c.State(), c.AbortReason)
	}
	if n := cli.Obs.Registry().Value("tcpstack.rto-capped"); n == 0 {
		t.Fatal("rto-capped counter never incremented")
	}
}

// TestFastRetransmit checks that three duplicate ACKs recover a lost
// segment without waiting out the retransmission timer.
func TestFastRetransmit(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	cli.Obs = obs.New(obs.NewRegistry(), nil)
	c, sc := establish(t, sim, cli, srv)

	// Drop the second data segment; the following segments elicit
	// enough duplicate ACKs for fast retransmit.
	seen := 0
	p.Server = netem.EndpointFunc(func(pkt *packet.Packet) {
		if pkt.TCP != nil && len(pkt.Payload) > 0 {
			seen++
			if seen == 2 {
				return
			}
		}
		srv.Deliver(pkt)
	})

	payload := bytes.Repeat([]byte("q"), 8*cli.Profile.MSS)
	t0 := sim.Now()
	c.Write(payload)
	sim.RunFor(2 * time.Second)

	if got := sc.Received(); !bytes.Equal(got, payload) {
		t.Fatalf("server received %d bytes, want %d", len(got), len(payload))
	}
	if n := cli.Obs.Registry().Value("tcpstack.fast-retransmit"); n != 1 {
		t.Fatalf("fast-retransmit count = %d, want 1", n)
	}
	// Recovery via dup ACKs completes well inside one RTO.
	if took := sc.LastDataAt - t0; took >= 200*time.Millisecond {
		t.Fatalf("transfer took %v, want < 1 RTO (fast retransmit, not timeout)", took)
	}
}

// TestCongestionWindowLimitsFlight checks the sender respects cwnd:
// after an RTO collapses the window to one MSS, at most one segment
// is in flight until ACKs grow it back.
func TestCongestionWindowLimitsFlight(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, _ := establish(t, sim, cli, srv)

	c.cwnd = cli.Profile.MSS // as if an RTO just fired
	c.ssthresh = 4 * cli.Profile.MSS
	payload := bytes.Repeat([]byte("s"), 6*cli.Profile.MSS)
	c.Write(payload)
	if inflight := int(c.sndNxt.Diff(c.sndUna)); inflight > cli.Profile.MSS {
		t.Fatalf("inflight = %d after write, want <= 1 MSS", inflight)
	}
	sim.RunFor(5 * time.Second)
	sc, _ := srv.Conn(80, cliAddr, c.LocalPort())
	if got := sc.Received(); !bytes.Equal(got, payload) {
		t.Fatalf("server received %d bytes, want %d", len(got), len(payload))
	}
}

// TestRTTSamplingFeedsRTO checks RFC 6298 plumbing: after an exchange
// the connection holds a smoothed RTT and the derived RTO respects
// the configured floor.
func TestRTTSamplingFeedsRTO(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.Run(1000)
	c.Write([]byte("ping"))
	sim.Run(1000)

	if c.srtt == 0 {
		t.Fatal("no RTT sample after a completed exchange")
	}
	// Path RTT is 8ms; the smoothed estimate must be in that vicinity
	// and the RTO must sit on the MinRTO floor.
	if c.srtt > 50*time.Millisecond {
		t.Fatalf("srtt = %v, want ~8ms", c.srtt)
	}
	if got := c.currentRTO(); got != MinRTO {
		t.Fatalf("currentRTO = %v, want MinRTO %v", got, MinRTO)
	}
}
