package tcpstack

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
)

func TestLargeTransferOverLossyLink(t *testing.T) {
	// 64 KiB through 2% loss: segmentation, retransmission and
	// reassembly must deliver every byte in order.
	sim, _, cli, srv := lossyPair(t, Linux44(), Linux44(), 0.02)
	payload := make([]byte, 64*1024)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData = func([]byte) {}
	})
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(2 * time.Second)
	if c.State() != Established {
		t.Fatalf("state = %v", c.State())
	}
	c.Write(payload)
	sim.RunFor(5 * time.Minute)
	if !bytes.Equal(serverConn.Received(), payload) {
		t.Fatalf("received %d/%d bytes intact=false", len(serverConn.Received()), len(payload))
	}
}

func TestSegmentationRespectsMSS(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	maxSeen := 0
	p.Trace = func(ev netem.TraceEvent) {
		if ev.Event == "send" && ev.Where == "client" && ev.Pkt.TCP != nil {
			if n := len(ev.Pkt.Payload); n > maxSeen {
				maxSeen = n
			}
		}
	}
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(time.Second)
	c.Write(make([]byte, 10000))
	sim.RunFor(time.Second)
	if maxSeen == 0 || maxSeen > cli.Profile.MSS {
		t.Fatalf("max segment %d vs MSS %d", maxSeen, cli.Profile.MSS)
	}
}

func TestConcurrentConnections(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	echoServer(srv, 8080)
	c1 := cli.Connect(srvAddr, 80)
	c2 := cli.Connect(srvAddr, 8080)
	c3 := cli.Connect(srvAddr, 80)
	sim.RunFor(time.Second)
	c1.Write([]byte("one"))
	c2.Write([]byte("two"))
	c3.Write([]byte("three"))
	sim.RunFor(time.Second)
	for i, want := range map[*Conn]string{c1: "one", c2: "two", c3: "three"} {
		if string(i.Received()) != want {
			t.Fatalf("conn got %q want %q", i.Received(), want)
		}
	}
	if c1.LocalPort() == c3.LocalPort() {
		t.Fatal("distinct connections must use distinct ports")
	}
}

func TestPortAllocationWraps(t *testing.T) {
	sim := netem.NewSimulator(1)
	s := NewStack(cliAddr, Linux44(), sim)
	s.nextPort = 65535
	a := s.AllocPort()
	b := s.AllocPort()
	if a != 65535 || b != 32768 {
		t.Fatalf("ports = %d, %d", a, b)
	}
}

func TestHalfCloseDeliversLateData(t *testing.T) {
	// Client closes its sending side; the server can still deliver its
	// final response before closing.
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData = func([]byte) {}
	})
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(time.Second)
	c.Write([]byte("request"))
	sim.RunFor(time.Second)
	c.Close() // FIN: half close
	sim.RunFor(time.Second)
	if serverConn.State() != CloseWait {
		t.Fatalf("server state = %v, want CLOSE_WAIT", serverConn.State())
	}
	serverConn.Write([]byte("late response"))
	sim.RunFor(time.Second)
	if !bytes.Contains(c.Received(), []byte("late response")) {
		t.Fatalf("client received %q", c.Received())
	}
	serverConn.Close()
	sim.RunFor(2 * time.Second)
	if serverConn.State() != Closed {
		t.Fatalf("server state = %v, want CLOSED", serverConn.State())
	}
}

func TestDuplicateSynGetsSynAckAgain(t *testing.T) {
	sim, p, _, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	synacks := 0
	p.Client = netem.EndpointFunc(func(pkt *packet.Packet) {
		if pkt.TCP != nil && pkt.TCP.HasFlag(packet.FlagSYN) && pkt.TCP.HasFlag(packet.FlagACK) {
			synacks++
		}
	})
	syn := packet.NewTCP(cliAddr, 4444, srvAddr, 80, packet.FlagSYN, 100, 0, nil)
	p.SendFromClient(syn.Clone())
	sim.RunFor(50 * time.Millisecond)
	p.SendFromClient(syn.Clone()) // retransmitted SYN
	sim.RunFor(50 * time.Millisecond)
	if synacks < 2 {
		t.Fatalf("SYN/ACKs = %d, want ≥2 (re-ACK on duplicate SYN)", synacks)
	}
}

func TestChallengeAckOnInWindowRST(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	var challenge *packet.Packet
	p.Client = netem.EndpointFunc(func(pkt *packet.Packet) {
		if pkt.TCP != nil && pkt.TCP.FlagsOnly(packet.FlagACK) {
			challenge = pkt
		}
		cli.Deliver(pkt)
	})
	rst := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagRST, sc.RcvNxt().Add(5), 0, nil)
	p.SendFromClient(rst)
	sim.RunFor(time.Second)
	if sc.State() != Established {
		t.Fatalf("server state = %v after in-window RST", sc.State())
	}
	if challenge == nil {
		t.Fatal("no challenge ACK emitted")
	}
	if challenge.TCP.Ack != c.SndNxt() {
		t.Fatalf("challenge ack = %d, want %d", challenge.TCP.Ack, c.SndNxt())
	}
}

func TestPAWSTimestampWrap(t *testing.T) {
	// A timestamp that wrapped around zero must still count as newer
	// (modular comparison), not trip PAWS.
	view := ConnView{
		State: Established, RcvNxt: 1000, RcvWnd: 29200,
		SndUna: 1, SndNxt: 1, TSRecent: 0xfffffff0, HasTSRecent: true,
	}
	pkt := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagPSH|packet.FlagACK, 1000, 1, []byte("x"))
	pkt.TCP.Options = append(pkt.TCP.Options, packet.TimestampOption(5, 0)) // wrapped forward
	pkt.Finalize()
	if d := Classify(Linux44(), view, pkt); d.Verdict != Accept {
		t.Fatalf("wrapped timestamp: %+v", d)
	}
	old := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagPSH|packet.FlagACK, 1000, 1, []byte("x"))
	old.TCP.Options = append(old.TCP.Options, packet.TimestampOption(0xffffff00, 0)) // genuinely older
	old.Finalize()
	if d := Classify(Linux44(), view, old); d.Verdict != IgnoreWithAck || d.Reason != "timestamp-too-old" {
		t.Fatalf("older timestamp: %+v", d)
	}
}

func TestUDPPortsIndependentOfTCP(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80) // TCP listener on 80
	var gotUDP []byte
	srv.ListenUDP(80, func(src packet.Addr, sp uint16, payload []byte) {
		gotUDP = payload
		srv.SendUDP(80, src, sp, []byte("pong"))
	})
	var reply []byte
	cli.ListenUDP(7000, func(src packet.Addr, sp uint16, payload []byte) { reply = payload })
	cli.SendUDP(7000, srvAddr, 80, []byte("ping"))
	sim.RunFor(time.Second)
	if string(gotUDP) != "ping" || string(reply) != "pong" {
		t.Fatalf("udp exchange: %q %q", gotUDP, reply)
	}
}

func TestListenerIgnoresMD5AndBadChecksumSyn(t *testing.T) {
	sim, p, _, srv := pair(t, Linux44(), Linux44())
	echoServer(srv, 80)
	accepted := 0
	srv.Listen(81, func(c *Conn) { accepted++ })
	md5syn := packet.NewTCP(cliAddr, 5000, srvAddr, 81, packet.FlagSYN, 1, 0, nil)
	md5syn.TCP.Options = append(md5syn.TCP.Options, packet.MD5Option([16]byte{9}))
	md5syn.Finalize()
	p.SendFromClient(md5syn)
	badck := packet.NewTCP(cliAddr, 5001, srvAddr, 81, packet.FlagSYN, 1, 0, nil)
	badck.TCP.Checksum ^= 0xff
	p.SendFromClient(badck)
	sim.RunFor(time.Second)
	if accepted != 0 {
		t.Fatalf("listener accepted %d crafted SYNs", accepted)
	}
}

func TestAbortReasonAndReceivedAccessors(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)
	if a, p := c.RemoteAddr(); a != srvAddr || p != 80 {
		t.Fatalf("RemoteAddr = %v:%d", a, p)
	}
	if c.ISS() == 0 && c.SndNxt() == 0 {
		t.Fatal("sequence accessors broken")
	}
	c.Abort()
	sim.RunFor(time.Second)
	if c.AbortReason != "local-abort" {
		t.Fatalf("reason = %q", c.AbortReason)
	}
	if !sc.GotRST {
		t.Fatal("peer should record the RST")
	}
}

func TestSenderRespectsPeerWindow(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData = func([]byte) {}
	})
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(time.Second)
	// Track the maximum unacknowledged bytes ever in flight.
	maxInflight := 0
	p.Trace = func(ev netem.TraceEvent) {
		if ev.Event == "send" && ev.Where == "client" && ev.Pkt.TCP != nil {
			if in := int(ev.Pkt.EndSeq().Diff(c.sndUna)); in > maxInflight {
				maxInflight = in
			}
		}
	}
	payload := make([]byte, 200*1024)
	c.Write(payload)
	sim.RunFor(time.Minute)
	if len(serverConn.Received()) != len(payload) {
		t.Fatalf("delivered %d/%d", len(serverConn.Received()), len(payload))
	}
	limit := srv.Profile.WindowSize + srv.Profile.MSS
	if maxInflight > limit {
		t.Fatalf("inflight peaked at %d, window is %d", maxInflight, srv.Profile.WindowSize)
	}
}

func TestCloseAfterQueuedDataFlushes(t *testing.T) {
	sim, _, cli, srv := pair(t, Linux44(), Linux44())
	var serverConn *Conn
	srv.Listen(80, func(c *Conn) {
		serverConn = c
		c.OnData = func([]byte) {}
	})
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(time.Second)
	big := make([]byte, 100*1024)
	c.Write(big)
	c.Close() // must not cut off queued data
	sim.RunFor(time.Minute)
	if len(serverConn.Received()) != len(big) {
		t.Fatalf("delivered %d/%d after Close", len(serverConn.Received()), len(big))
	}
	if serverConn.State() != CloseWait && serverConn.State() != Closed {
		t.Fatalf("server state = %v, want FIN seen", serverConn.State())
	}
}

// Abort resets the connection, notifying the peer.
func (c *Conn) Abort() {
	if c.state == Closed {
		return
	}
	c.transmit(packet.FlagRST|packet.FlagACK, c.sndNxt, c.rcvNxt, nil)
	c.abort("local-abort")
}
