package tcpstack

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

// pair builds client and server stacks joined by a 3-router chain.
func pair(t *testing.T, cliProf, srvProf Profile) (*netem.Simulator, *netem.Fabric, *Stack, *Stack) {
	t.Helper()
	return lossyPair(t, cliProf, srvProf, 0)
}

// lossyPair is pair with the client's access link losing packets at
// rate loss in both directions.
func lossyPair(t *testing.T, cliProf, srvProf Profile, loss float64) (*netem.Simulator, *netem.Fabric, *Stack, *Stack) {
	t.Helper()
	sim := netem.NewSimulator(7)
	link := netem.Link{Latency: time.Millisecond}
	access := link
	access.LossRate = loss
	p := netem.NewChain(sim, 3, access, link)
	cli := NewStack(cliAddr, cliProf, sim)
	srv := NewStack(srvAddr, srvProf, sim)
	cli.AttachClient(p)
	srv.AttachServer(p)
	return sim, p, cli, srv
}

// echoServer installs a listener that echoes received data back.
func echoServer(srv *Stack, port uint16) {
	srv.Listen(port, func(c *Conn) {
		c.OnData = func(data []byte) { c.Write(data) }
	})
}

func TestHandshakeAndEcho(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.Run(1000)
	if c.State() != Established {
		t.Fatalf("client state = %v", c.State())
	}
	c.Write([]byte("hello state machines"))
	sim.Run(1000)
	if got := string(c.Received()); got != "hello state machines" {
		t.Fatalf("echo = %q", got)
	}
	sc, ok := srv.Conn(80, cliAddr, c.LocalPort())
	if !ok || sc.State() != Established {
		t.Fatalf("server conn state: %v ok=%v", sc, ok)
	}
}

func TestHandshakeAcrossProfiles(t *testing.T) {
	for _, prof := range AllProfiles() {
		prof := prof
		t.Run(prof.Name, func(t *testing.T) {
			sim, _, cli, srv := pair(t, Linux44(), prof)
			echoServer(srv, 80)
			c := cli.Connect(srvAddr, 80)
			c.OnData = func([]byte) {}
			sim.Run(1000)
			c.Write([]byte("ping"))
			sim.Run(1000)
			if got := string(c.Received()); got != "ping" {
				t.Fatalf("%s: echo = %q", prof.Name, got)
			}
		})
	}
}

func TestRetransmissionOnLoss(t *testing.T) {
	// Lose 30% of packets on the client link; retransmission must
	// still complete the exchange.
	sim, _, cli, srv := lossyPair(t, Linux44(), Linux44(), 0.3)
	echoServer(srv, 80)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(10 * time.Second)
	if c.State() != Established {
		t.Fatalf("client state = %v", c.State())
	}
	c.Write([]byte("lossy"))
	sim.RunFor(20 * time.Second)
	if got := string(c.Received()); got != "lossy" {
		t.Fatalf("echo over loss = %q", got)
	}
}

func TestRetransmissionGivesUp(t *testing.T) {
	sim, _, cli, _ := lossyPair(t, Linux44(), Linux44(), 1.0)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(2 * time.Minute)
	if c.State() != Closed {
		t.Fatalf("state = %v, want CLOSED after retry limit", c.State())
	}
	if c.AbortReason != "retransmission-limit" {
		t.Fatalf("reason = %q", c.AbortReason)
	}
}

func TestOrderlyClose(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData = func(data []byte) {
			c.Write([]byte("bye"))
			c.Close()
		}
	})
	c := cli.Connect(srvAddr, 80)
	sim.Run(1000)
	c.Write([]byte("x"))
	sim.Run(1000)
	if string(c.Received()) != "bye" {
		t.Fatalf("received %q", c.Received())
	}
	if c.State() != CloseWait {
		t.Fatalf("client state = %v, want CLOSE_WAIT", c.State())
	}
	c.Close()
	sim.Run(1000)
	if serverConn.State() != Closed {
		t.Fatalf("server state = %v", serverConn.State())
	}
}

func TestRSTFromPeerTearsDown(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) { serverConn = c })
	c := cli.Connect(srvAddr, 80)
	sim.Run(1000)
	c.Abort()
	sim.Run(1000)
	if serverConn.State() != Closed || !serverConn.GotRST {
		t.Fatalf("server state=%v gotRST=%v", serverConn.State(), serverConn.GotRST)
	}
}

func TestConnectToClosedPortGetsRST(t *testing.T) {
	sim, _, cli, _ := pair(t, Linux44(), Linux44())
	c := cli.Connect(srvAddr, 81)
	sim.Run(1000)
	if c.State() != Closed || !c.GotRST {
		t.Fatalf("state=%v gotRST=%v", c.State(), c.GotRST)
	}
}

func TestListenSynAckDrawsRST(t *testing.T) {
	// §5.2 TCB Reversal: a SYN/ACK to a LISTEN port draws a RST whose
	// seq comes from the ack field.
	sim, p, _, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	var got *packet.Packet
	p.Client = netem.EndpointFunc(func(pkt *packet.Packet) { got = pkt })
	synack := packet.NewTCP(cliAddr, 9999, srvAddr, 80, packet.FlagSYN|packet.FlagACK, 1000, 2000, nil)
	p.SendFromClient(synack)
	sim.Run(1000)
	if got == nil || !got.TCP.FlagsOnly(packet.FlagRST) {
		t.Fatalf("want bare RST, got %v", got)
	}
	if got.TCP.Seq != 2000 {
		t.Fatalf("RST seq = %d, want 2000 (the offending ack)", got.TCP.Seq)
	}
}

// establish returns an established client conn plus the server conn.
func establish(t *testing.T, sim *netem.Simulator, cli, srv *Stack) (*Conn, *Conn) {
	t.Helper()
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData = func([]byte) {}
	})
	c := cli.Connect(srvAddr, 80)
	sim.Run(1000)
	if c.State() != Established || serverConn == nil || serverConn.State() != Established {
		t.Fatalf("handshake failed: cli=%v", c.State())
	}
	return c, serverConn
}

// classify runs Classify against a live conn's view.
func classify(c *Conn, pkt *packet.Packet) Disposition {
	return Classify(c.stack.Profile, c.view(), pkt)
}

func TestDispositionBadChecksum(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), c.RcvNxt(), []byte("junk"))
	pkt.TCP.Checksum ^= 0xbeef
	d := classify(sc, pkt)
	if d.Verdict != Ignore || d.Reason != "tcp-checksum-incorrect" {
		t.Fatalf("disposition = %+v", d)
	}
}

func TestDispositionMD5(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), c.RcvNxt(), []byte("junk"))
	pkt.TCP.Options = append(pkt.TCP.Options, packet.MD5Option([16]byte{1}))
	pkt.Finalize()
	if d := classify(sc, pkt); d.Verdict != Ignore || d.Reason != "unsolicited-md5-option" {
		t.Fatalf("linux-4.4 disposition = %+v", d)
	}
	// Linux 2.4.37 has no RFC 2385 support: the packet is processed.
	old := Linux2437()
	if d := Classify(old, sc.view(), pkt); d.Verdict != Accept {
		t.Fatalf("linux-2.4.37 disposition = %+v", d)
	}
}

func TestDispositionNoFlags(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80, 0, c.SndNxt(), 0, []byte("junk"))
	if d := classify(sc, pkt); d.Verdict != Ignore || d.Reason != "no-tcp-flags" {
		t.Fatalf("4.4 disposition = %+v", d)
	}
	// Old stacks accept flagless data (§5.3) — the reason in-order
	// prefill with no-flag insertion packets fails against them.
	if d := Classify(Linux2634(), sc.view(), pkt); d.Verdict != Accept {
		t.Fatalf("2.6.34 disposition = %+v", d)
	}
}

func TestDispositionFINOnly(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80, packet.FlagFIN, c.SndNxt(), 0, nil)
	if d := classify(sc, pkt); d.Verdict != Ignore || d.Reason != "missing-ack-flag" {
		t.Fatalf("disposition = %+v", d)
	}
}

func TestDispositionBadAck(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), sc.SndNxt().Add(99999), []byte("junk"))
	if d := classify(sc, pkt); d.Verdict != IgnoreWithAck || d.Reason != "ack-for-unsent-data" {
		t.Fatalf("disposition = %+v", d)
	}
}

func TestDispositionOldTimestamp(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	sim.RunFor(5 * time.Second) // let the timestamp clock advance
	c.Write([]byte("a"))
	sim.Run(1000)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), c.RcvNxt(), []byte("junk"))
	pkt.TCP.Options = append(pkt.TCP.Options, packet.TimestampOption(1, 0)) // ancient
	pkt.Finalize()
	if d := classify(sc, pkt); d.Verdict != IgnoreWithAck || d.Reason != "timestamp-too-old" {
		t.Fatalf("disposition = %+v", d)
	}
}

func TestDispositionLyingIPLength(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), c.RcvNxt(), []byte("junk"))
	pkt.IP.TotalLength += 100
	if d := classify(sc, pkt); d.Verdict != Ignore || d.Reason != "ip-total-length-exceeds-actual" {
		t.Fatalf("disposition = %+v", d)
	}
}

func TestDispositionShortTCPHeader(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	pkt := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagACK, c.SndNxt(), c.RcvNxt(), []byte("junk"))
	pkt.TCP.RawDataOffset = 4
	if d := classify(sc, pkt); d.Verdict != Ignore || d.Reason != "tcp-header-length-under-20" {
		t.Fatalf("disposition = %+v", d)
	}
}

func TestDispositionRSTPolicies(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	inWindow := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagRST, sc.RcvNxt().Add(100), 0, nil)
	if d := classify(sc, inWindow); d.Verdict != IgnoreWithAck {
		t.Fatalf("4.4 in-window RST: %+v", d)
	}
	exact := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagRST, sc.RcvNxt(), 0, nil)
	if d := classify(sc, exact); d.Verdict != AbortConn {
		t.Fatalf("4.4 exact RST: %+v", d)
	}
	// Pre-RFC-5961: any in-window RST aborts.
	if d := Classify(Linux2634(), sc.view(), inWindow); d.Verdict != AbortConn {
		t.Fatalf("2.6.34 in-window RST: %+v", d)
	}
	outOfWindow := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagRST, sc.RcvNxt().Add(1<<20), 0, nil)
	if d := Classify(Linux2634(), sc.view(), outOfWindow); d.Verdict != Ignore {
		t.Fatalf("2.6.34 out-of-window RST: %+v", d)
	}
}

func TestDispositionSYNInEstablished(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	inWindow := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagSYN, sc.RcvNxt().Add(10), 0, nil)
	outOfWindow := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagSYN, sc.RcvNxt().Add(1<<20), 0, nil)
	if d := classify(sc, inWindow); d.Verdict != IgnoreWithAck || d.Reason != "syn-challenge-ack" {
		t.Fatalf("4.4: %+v", d)
	}
	if d := Classify(Linux314(), sc.view(), inWindow); d.Verdict != Ignore {
		t.Fatalf("3.14: %+v", d)
	}
	if d := Classify(Linux2634(), sc.view(), inWindow); d.Verdict != AbortConn {
		t.Fatalf("2.6.34 in-window: %+v", d)
	}
	if d := Classify(Linux2634(), sc.view(), outOfWindow); d.Verdict != Ignore {
		t.Fatalf("2.6.34 out-of-window: %+v", d)
	}
	_ = c
}

func TestDispositionRSTACKBadAckInSynRecv(t *testing.T) {
	// Table 3 row 4: SYN_RECV + RST/ACK with wrong ack is ignored.
	sim := netem.NewSimulator(3)
	view := ConnView{State: SynRecv, RcvNxt: 1000, RcvWnd: 29200, SndUna: 500, SndNxt: 501}
	pkt := packet.NewTCP(cliAddr, 1, srvAddr, 80, packet.FlagRST|packet.FlagACK, 1000, 999999, nil)
	if d := Classify(Linux44(), view, pkt); d.Verdict != Ignore || d.Reason != "rstack-bad-ack-in-syn-recv" {
		t.Fatalf("disposition = %+v", d)
	}
	good := packet.NewTCP(cliAddr, 1, srvAddr, 80, packet.FlagRST|packet.FlagACK, 1000, 501, nil)
	if d := Classify(Linux44(), view, good); d.Verdict != AbortConn {
		t.Fatalf("good rst/ack = %+v", d)
	}
	_ = sim
}

func TestOutOfWindowDataDrawsDupAckOnly(t *testing.T) {
	// The desynchronization insertion packet (§5.1) must leave a real
	// server's state untouched, drawing only a duplicate ACK.
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	before := sc.RcvNxt()
	var acks int
	p.Client = netem.EndpointFunc(func(pkt *packet.Packet) {
		if pkt.TCP != nil && pkt.TCP.FlagsOnly(packet.FlagACK) {
			acks++
		}
		cli.Deliver(pkt)
	})
	desync := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt().Add(1<<20), c.RcvNxt(), []byte("z"))
	p.SendFromClient(desync)
	sim.Run(1000)
	if sc.RcvNxt() != before {
		t.Fatal("server state moved on out-of-window data")
	}
	if acks == 0 {
		t.Fatal("expected a duplicate ACK")
	}
	// The connection still works.
	c.Write([]byte("still fine"))
	sim.Run(1000)
	if !bytes.Equal(sc.Received(), []byte("still fine")) {
		t.Fatalf("server received %q", sc.Received())
	}
}

func TestOutOfOrderReassembly(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	// Send segment B (seq+5) before segment A (seq).
	seq := c.SndNxt()
	segB := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, seq.Add(5), c.RcvNxt(), []byte("world"))
	segA := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, seq, c.RcvNxt(), []byte("hello"))
	p.SendFromClient(segB)
	p.SendFromClient(segA)
	sim.Run(1000)
	if got := string(sc.Received()); got != "helloworld" {
		t.Fatalf("reassembled %q", got)
	}
}

func TestSegmentOverlapFirstWins(t *testing.T) {
	// Linux keeps already-queued data: send junk at seq+5 first, then
	// the real data at the same range — the junk survives.
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	seq := c.SndNxt()
	junk := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, seq.Add(5), c.RcvNxt(), []byte("JUNK!"))
	real := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, seq.Add(5), c.RcvNxt(), []byte("real!"))
	head := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, seq, c.RcvNxt(), []byte("abcde"))
	p.SendFromClient(junk)
	p.SendFromClient(real)
	p.SendFromClient(head)
	sim.Run(1000)
	if got := string(sc.Received()); got != "abcdeJUNK!" {
		t.Fatalf("first-wins got %q", got)
	}
}

func TestForgedSynAckDisruptsHandshake(t *testing.T) {
	// During the GFW's 90-second blocking period it answers SYNs with a
	// forged SYN/ACK carrying a wrong sequence number. The client
	// accepts it (the ack is right), desynchronizing it from the real
	// server — the legitimate handshake is obstructed (§2.1).
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	var clientConn *Conn
	// Forge at the second router: respond to the SYN before the server can.
	forge := processorFunc(func(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
		if dir == netem.ToServer && pkt.TCP != nil && pkt.TCP.FlagsOnly(packet.FlagSYN) {
			f := packet.NewTCP(pkt.IP.Dst, pkt.TCP.DstPort, pkt.IP.Src, pkt.TCP.SrcPort,
				packet.FlagSYN|packet.FlagACK, 0xdeadbeef, pkt.TCP.Seq.Add(1), nil)
			ctx.Inject(netem.ToClient, f, 0)
		}
		return netem.Pass
	})
	p.Node(2).Processors = []netem.Processor{forge} // the second router
	clientConn = cli.Connect(srvAddr, 80)
	sim.Run(2000)
	// Client is "established" against a phantom; write data and observe
	// no echo arrives (server ignores out-of-sync data, sends
	// challenge ACKs).
	clientConn.Write([]byte("GET /"))
	sim.RunFor(5 * time.Second)
	if len(clientConn.Received()) != 0 {
		t.Fatalf("client should not receive echo, got %q", clientConn.Received())
	}
}

type processorFunc func(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict

func (processorFunc) Name() string { return "test-proc" }
func (f processorFunc) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	return f(ctx, pkt, dir)
}

func TestObserveHookSeesDispositions(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	var reasons []string
	srv.Observe = func(c *Conn, pkt *packet.Packet, d Disposition) {
		reasons = append(reasons, d.Reason)
	}
	c, _ := establish(t, sim, cli, srv)
	bad := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80, 0, c.SndNxt(), 0, []byte("x"))
	p.SendFromClient(bad)
	sim.Run(1000)
	found := false
	for _, r := range reasons {
		if r == "no-tcp-flags" {
			found = true
		}
	}
	if !found {
		t.Fatalf("observe hook missed the flagless packet: %v", reasons)
	}
}

func TestStateStrings(t *testing.T) {
	states := []State{Closed, SynSent, SynRecv, Established, FinWait1, FinWait2, CloseWait, LastAck, Closing, TimeWait}
	seen := map[string]bool{}
	for _, s := range states {
		str := s.String()
		if str == "?" || seen[str] {
			t.Fatalf("bad or duplicate state string %q", str)
		}
		seen[str] = true
	}
	if Verdict(99).String() != "?" {
		t.Fatal("unknown verdict string")
	}
}
