package gfw

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/dnsmsg"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

const keyword = "ultrasurf"

// rig is a client—GFW—server test topology.
type rig struct {
	sim    *netem.Simulator
	path   *netem.Fabric
	dev    *Device
	cli    *tcpstack.Stack
	srv    *tcpstack.Stack
	events []Event
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{sim: netem.NewSimulator(11)}
	if cfg.Keywords == nil {
		cfg.Keywords = []string{keyword}
	}
	r.dev = NewDevice("gfw", cfg, r.sim.Rand())
	r.dev.OnEvent = func(ev Event) { r.events = append(r.events, ev) }
	link := netem.Link{Latency: time.Millisecond}
	r.path = netem.NewChain(r.sim, 5, link, link)
	// GFW taps the third router; its IP filter sits in-path there too.
	r.path.Node(3).Taps = []netem.Processor{r.dev}
	r.path.Node(3).Processors = []netem.Processor{r.dev.IPFilter()}
	r.cli = tcpstack.NewStack(cliAddr, tcpstack.Linux44(), r.sim)
	r.srv = tcpstack.NewStack(srvAddr, tcpstack.Linux44(), r.sim)
	r.cli.AttachClient(r.path)
	r.srv.AttachServer(r.path)
	// A minimal HTTP app.
	r.srv.Listen(80, func(c *tcpstack.Conn) {
		c.OnData = func(data []byte) {
			if bytes.Contains(c.Received(), []byte("\r\n\r\n")) {
				c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"))
			}
		}
	})
	return r
}

func (r *rig) countEvents(kind string) int {
	n := 0
	for _, ev := range r.events {
		if ev.Kind == kind {
			n++
		}
	}
	return n
}

// get runs one HTTP GET for uri and returns the client connection.
func (r *rig) get(t *testing.T, uri string) *tcpstack.Conn {
	t.Helper()
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(100 * time.Millisecond)
	if c.State() == tcpstack.Established {
		c.Write([]byte("GET " + uri + " HTTP/1.1\r\nHost: example.com\r\n\r\n"))
	}
	r.sim.RunFor(2 * time.Second)
	return c
}

func evolvedCfg() Config {
	return Config{Model: ModelEvolved2017, DetectionMissProb: -1} // -1: never miss
}

func TestCleanRequestPasses(t *testing.T) {
	r := newRig(t, evolvedCfg())
	c := r.get(t, "/index.html")
	if !bytes.Contains(c.Received(), []byte("200 OK")) {
		t.Fatalf("no response: %q", c.Received())
	}
	if c.GotRST {
		t.Fatal("clean request drew a reset")
	}
	if r.countEvents("detect") != 0 {
		t.Fatal("spurious detection")
	}
}

func TestKeywordDetectedAndReset(t *testing.T) {
	r := newRig(t, evolvedCfg())
	c := r.get(t, "/?q="+keyword)
	if !c.GotRST {
		t.Fatalf("client not reset; received %q", c.Received())
	}
	if bytes.Contains(c.Received(), []byte("200 OK")) {
		t.Fatal("censored response leaked")
	}
	if r.countEvents("detect") != 1 {
		t.Fatalf("detect events = %d", r.countEvents("detect"))
	}
	if !r.dev.PairBlocked(cliAddr, srvAddr, r.sim.Now()) {
		t.Fatal("pair not blocklisted")
	}
}

func TestResetSignature(t *testing.T) {
	// §2.1: one type-1 RST (random TTL/window) plus three type-2
	// RST/ACKs at X, X+1460, X+4380 with cyclic TTL/window.
	r := newRig(t, evolvedCfg())
	var toClient []*packet.Packet
	r.path.Trace = func(ev netem.TraceEvent) {
		if ev.Event == "deliver" && ev.Where == "client" && ev.Pkt.TCP != nil && ev.Pkt.TCP.HasFlag(packet.FlagRST) {
			toClient = append(toClient, ev.Pkt)
		}
	}
	r.get(t, "/?q="+keyword)
	// Examine the initial volley only: during the 90-second block any
	// further packet (server retransmissions, orphan-segment RSTs)
	// draws more resets, so the stream continues beyond it.
	if len(toClient) < 4 {
		t.Fatalf("only %d resets reached the client", len(toClient))
	}
	var type1, type2 []*packet.Packet
	for _, p := range toClient[:4] {
		if p.TCP.HasFlag(packet.FlagACK) {
			type2 = append(type2, p)
		} else {
			type1 = append(type1, p)
		}
	}
	if len(type1) != 1 {
		t.Fatalf("type-1 resets = %d, want 1", len(type1))
	}
	if len(type2) != 3 {
		t.Fatalf("type-2 resets = %d, want 3", len(type2))
	}
	base := type2[0].TCP.Seq
	if type2[1].TCP.Seq != base.Add(1460) || type2[2].TCP.Seq != base.Add(4380) {
		t.Fatalf("type-2 offsets: %d %d %d", type2[0].TCP.Seq, type2[1].TCP.Seq, type2[2].TCP.Seq)
	}
	if type2[1].IP.TTL <= type2[0].IP.TTL {
		t.Fatal("type-2 TTL should cyclically increase")
	}
}

func TestBlocklistForgedSynAckAndExpiry(t *testing.T) {
	r := newRig(t, evolvedCfg())
	r.get(t, "/?q="+keyword)

	// A fresh connection during the block is obstructed.
	c2 := r.get(t, "/clean.html")
	if bytes.Contains(c2.Received(), []byte("200 OK")) {
		t.Fatal("connection during block period succeeded")
	}
	if r.countEvents("forged-synack") == 0 {
		t.Fatal("no forged SYN/ACK during block")
	}

	// After the 90-second block expires, access works again.
	r.sim.RunFor(91 * time.Second)
	c3 := r.get(t, "/clean.html")
	if !bytes.Contains(c3.Received(), []byte("200 OK")) {
		t.Fatalf("post-block request failed: %q", c3.Received())
	}
}

func TestOldModelIgnoresSynAck(t *testing.T) {
	r := newRig(t, Config{Model: ModelKhattak2013, DetectionMissProb: -1})
	synack := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN|packet.FlagACK, 100, 200, nil)
	synack.IP.TTL = 3 // never reaches the server
	synack.Finalize()
	r.path.SendFromClient(synack)
	r.sim.RunFor(100 * time.Millisecond)
	if r.dev.TCBCount() != 0 {
		t.Fatal("old model must not create a TCB from SYN/ACK")
	}
}

func TestEvolvedCreatesTCBFromSynAckReversed(t *testing.T) {
	// Hypothesized New Behavior 1 + the TCB Reversal premise (§5.2).
	r := newRig(t, evolvedCfg())
	synack := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN|packet.FlagACK, 100, 200, nil)
	synack.IP.TTL = 3
	synack.Finalize()
	r.path.SendFromClient(synack)
	r.sim.RunFor(100 * time.Millisecond)
	if r.dev.TCBCount() != 1 {
		t.Fatal("evolved model must create a TCB from SYN/ACK")
	}
	tuple := synack.Tuple()
	client, ok := r.dev.TCBOrientation(tuple)
	if !ok || client != srvAddr {
		t.Fatalf("orientation: client=%v, want %v (reversed)", client, srvAddr)
	}
}

func TestMultipleSynEntersResync(t *testing.T) {
	// Hypothesized New Behavior 2(a).
	r := newRig(t, evolvedCfg())
	syn1 := packet.NewTCP(cliAddr, 4001, srvAddr, 80, packet.FlagSYN, 1000, 0, nil)
	syn2 := packet.NewTCP(cliAddr, 4001, srvAddr, 80, packet.FlagSYN, 99999, 0, nil)
	syn1.IP.TTL = 3
	syn1.Finalize()
	syn2.IP.TTL = 3
	syn2.Finalize()
	r.path.SendFromClient(syn1)
	r.path.SendFromClient(syn2)
	r.sim.RunFor(100 * time.Millisecond)
	st, ok := r.dev.TCBState(syn1.Tuple())
	if !ok || st != "RESYNC" {
		t.Fatalf("state = %q ok=%v, want RESYNC", st, ok)
	}
}

func TestResyncFollowsClientData(t *testing.T) {
	// In resync state the GFW adopts the next client data packet's
	// sequence — even a wildly out-of-window one. The fake-SYN evasion
	// therefore fails against the evolved model (§4, Prior Assumption 2).
	r := newRig(t, evolvedCfg())
	send := func(p *packet.Packet) {
		p.IP.TTL = 3
		p.Finalize()
		r.path.SendFromClient(p)
		r.sim.RunFor(50 * time.Millisecond)
	}
	send(packet.NewTCP(cliAddr, 4002, srvAddr, 80, packet.FlagSYN, 1000, 0, nil))
	send(packet.NewTCP(cliAddr, 4002, srvAddr, 80, packet.FlagSYN, 5000, 0, nil))
	// HTTP request at an arbitrary sequence: resynchronizes and is
	// still detected.
	send(packet.NewTCP(cliAddr, 4002, srvAddr, 80, packet.FlagPSH|packet.FlagACK,
		777777, 1, []byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n")))
	if r.countEvents("resync-applied") == 0 {
		t.Fatal("no resynchronization applied")
	}
	if r.countEvents("detect") != 1 {
		t.Fatal("keyword after resync not detected")
	}
}

func TestDesyncDefeatsResync(t *testing.T) {
	// §5.1: while in resync state, an out-of-window junk data packet
	// desynchronizes the TCB; the real request is then invisible.
	r := newRig(t, evolvedCfg())
	send := func(p *packet.Packet) {
		p.IP.TTL = 3
		p.Finalize()
		r.path.SendFromClient(p)
		r.sim.RunFor(50 * time.Millisecond)
	}
	send(packet.NewTCP(cliAddr, 4003, srvAddr, 80, packet.FlagSYN, 1000, 0, nil))
	send(packet.NewTCP(cliAddr, 4003, srvAddr, 80, packet.FlagSYN, 5000, 0, nil))
	// Desynchronization packet: 1 byte of junk at a far-away sequence.
	send(packet.NewTCP(cliAddr, 4003, srvAddr, 80, packet.FlagPSH|packet.FlagACK, 999999, 1, []byte("z")))
	// Real request at the "true" sequence.
	send(packet.NewTCP(cliAddr, 4003, srvAddr, 80, packet.FlagPSH|packet.FlagACK,
		1001, 1, []byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n")))
	if r.countEvents("detect") != 0 {
		t.Fatal("desynchronized GFW still detected the keyword")
	}
}

func TestRSTTeardownVsResync(t *testing.T) {
	mk := func(prob float64) (*rig, *Device) {
		cfg := evolvedCfg()
		cfg.ResyncOnRSTProb = prob
		r := newRig(t, cfg)
		return r, r.dev
	}
	// Device that tears down on RST: evasion by teardown works.
	r, dev := mk(0)
	if dev.RSTResyncs() {
		t.Fatal("prob 0 device must not resync on RST")
	}
	send := func(r *rig, p *packet.Packet) {
		p.IP.TTL = 3
		p.Finalize()
		r.path.SendFromClient(p)
		r.sim.RunFor(50 * time.Millisecond)
	}
	send(r, packet.NewTCP(cliAddr, 4004, srvAddr, 80, packet.FlagSYN, 1000, 0, nil))
	send(r, packet.NewTCP(cliAddr, 4004, srvAddr, 80, packet.FlagRST, 1001, 0, nil))
	send(r, packet.NewTCP(cliAddr, 4004, srvAddr, 80, packet.FlagPSH|packet.FlagACK,
		1001, 1, []byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n")))
	if r.countEvents("detect") != 0 {
		t.Fatal("teardown device detected after RST")
	}

	// Device that resyncs on RST: the request itself resynchronizes the
	// TCB and is detected (Hypothesized New Behavior 3).
	r2, dev2 := mk(1)
	if !dev2.RSTResyncs() {
		t.Fatal("prob 1 device must resync on RST")
	}
	send(r2, packet.NewTCP(cliAddr, 4005, srvAddr, 80, packet.FlagSYN, 1000, 0, nil))
	send(r2, packet.NewTCP(cliAddr, 4005, srvAddr, 80, packet.FlagRST, 1001, 0, nil))
	send(r2, packet.NewTCP(cliAddr, 4005, srvAddr, 80, packet.FlagPSH|packet.FlagACK,
		1001, 1, []byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n")))
	if r2.countEvents("detect") != 1 {
		t.Fatal("resync device failed to detect after RST")
	}
}

func TestSplitKeywordType1VsType2(t *testing.T) {
	// §2.1: only type-2 devices reassemble across packets.
	run := func(type1, type2 bool) int {
		cfg := evolvedCfg()
		cfg.Type1, cfg.Type2 = type1, type2
		r := newRig(t, cfg)
		c := r.cli.Connect(srvAddr, 80)
		r.sim.RunFor(100 * time.Millisecond)
		half := len(keyword) / 2
		c.Write([]byte("GET /?q=" + keyword[:half]))
		r.sim.RunFor(50 * time.Millisecond)
		c.Write([]byte(keyword[half:] + " HTTP/1.1\r\n\r\n"))
		r.sim.RunFor(time.Second)
		return r.countEvents("detect")
	}
	if got := run(true, false); got != 0 {
		t.Fatalf("type-1-only device detected a split keyword (%d)", got)
	}
	if got := run(false, true); got != 1 {
		t.Fatalf("type-2 device missed the split keyword (%d)", got)
	}
}

func TestFragmentedRequestReassembled(t *testing.T) {
	// The GFW reassembles IP fragments (first copy wins) before DPI.
	r := newRig(t, evolvedCfg())
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(100 * time.Millisecond)
	req := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), c.RcvNxt(),
		[]byte("GET /?q="+keyword+" HTTP/1.1\r\nHost: example.com\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n\r\n"))
	frags, err := packet.Fragment(req, 80)
	if err != nil || len(frags) < 2 {
		t.Fatalf("fragmentation failed: %v (%d frags)", err, len(frags))
	}
	for _, f := range frags {
		r.path.SendFromClient(f)
	}
	r.sim.RunFor(time.Second)
	if r.countEvents("detect") != 1 {
		t.Fatalf("fragmented keyword not detected: %d", r.countEvents("detect"))
	}
}

func TestDetectionMissProbability(t *testing.T) {
	cfg := evolvedCfg()
	cfg.DetectionMissProb = 1.0
	r := newRig(t, cfg)
	c := r.get(t, "/?q="+keyword)
	if c.GotRST {
		t.Fatal("overloaded device should have missed")
	}
	if !bytes.Contains(c.Received(), []byte("200 OK")) {
		t.Fatal("response missing despite detection miss")
	}
	if r.countEvents("detect-miss") != 1 {
		t.Fatalf("miss events = %d", r.countEvents("detect-miss"))
	}
}

func TestDNSUDPPoisoning(t *testing.T) {
	r := newRig(t, Config{Model: ModelEvolved2017, PoisonedDomains: []string{"dropbox.com"}, DetectionMissProb: -1})
	// Resolver app on the server.
	r.srv.ListenUDP(53, func(src packet.Addr, srcPort uint16, payload []byte) {
		q, err := dnsmsg.Decode(payload)
		if err != nil {
			return
		}
		resp := dnsmsg.NewResponse(q, packet.AddrFrom4(1, 2, 3, 4), 60)
		b, _ := resp.Encode()
		r.srv.SendUDP(53, src, srcPort, b)
	})
	var answers []packet.Addr
	r.cli.ListenUDP(5353, func(src packet.Addr, srcPort uint16, payload []byte) {
		m, err := dnsmsg.Decode(payload)
		if err == nil && len(m.Answers) > 0 {
			answers = append(answers, m.Answers[0].Addr)
		}
	})
	q, _ := dnsmsg.NewQuery(42, "www.dropbox.com").Encode()
	r.cli.SendUDP(5353, srvAddr, 53, q)
	r.sim.RunFor(time.Second)
	if len(answers) < 2 {
		t.Fatalf("answers = %v, want poisoned + real", answers)
	}
	if answers[0] != PoisonAddr {
		t.Fatalf("first answer = %v, want poison %v", answers[0], PoisonAddr)
	}
	// An innocent domain is not poisoned.
	answers = nil
	q2, _ := dnsmsg.NewQuery(43, "www.example.com").Encode()
	r.cli.SendUDP(5353, srvAddr, 53, q2)
	r.sim.RunFor(time.Second)
	if len(answers) != 1 || answers[0] != packet.AddrFrom4(1, 2, 3, 4) {
		t.Fatalf("innocent answers = %v", answers)
	}
}

func TestDNSOverTCPReset(t *testing.T) {
	r := newRig(t, Config{Model: ModelEvolved2017, PoisonedDomains: []string{"dropbox.com"}, DetectionMissProb: -1})
	r.srv.Listen(53, func(c *tcpstack.Conn) {
		c.OnData = func([]byte) {}
	})
	c := r.cli.Connect(srvAddr, 53)
	r.sim.RunFor(100 * time.Millisecond)
	q, _ := dnsmsg.NewQuery(7, "www.dropbox.com").Encode()
	c.Write(dnsmsg.FrameTCP(q))
	r.sim.RunFor(time.Second)
	if !c.GotRST {
		t.Fatal("TCP DNS query for censored domain not reset")
	}
}

func TestTorFingerprintAndIPBlock(t *testing.T) {
	cfg := evolvedCfg()
	cfg.TorFiltering = true
	cfg.ActiveProbeDelay = 5 * time.Second
	r := newRig(t, cfg)
	appsim.ServeTorBridge(r.srv, 9001)
	c := r.cli.Connect(srvAddr, 9001)
	r.sim.RunFor(100 * time.Millisecond)
	hello := []byte{0x16, 3, 1, 0, 60, 0x01, 0, 0, 0}
	hello = append(hello, bytes.Repeat([]byte{0}, 8)...)
	hello = append(hello, []byte{0xc0, 0x2b, 0xc0, 0x2f, 0x00, 0x9e, 0xcc, 0x14, 0xcc, 0x13}...)
	c.Write(hello)
	r.sim.RunFor(time.Second)
	if !c.GotRST {
		t.Fatal("Tor handshake not reset")
	}
	if r.dev.IsIPBlocked(srvAddr) {
		t.Fatal("IP blocked before the active-probe delay")
	}
	r.sim.RunFor(10 * time.Second)
	if !r.dev.IsIPBlocked(srvAddr) {
		t.Fatal("bridge IP not blocked after active probing")
	}
	// Let the 90-second pair block lapse so only the IP-level blackhole
	// remains, then observe that SYNs vanish silently (no RST, no
	// SYN/ACK) — the "can no longer connect to this IP via any port"
	// behaviour of §7.3.
	r.sim.RunFor(2 * time.Minute)
	c2 := r.cli.Connect(srvAddr, 9001)
	r.sim.RunFor(60 * time.Second)
	if c2.State() == tcpstack.Established {
		t.Fatal("connection to a null-routed bridge succeeded")
	}
	if c2.GotRST {
		t.Fatal("blackholed SYN should time out silently, not draw a RST")
	}
	if c2.AbortReason != "retransmission-limit" {
		t.Fatalf("abort reason = %q", c2.AbortReason)
	}
}

func TestTorWithoutFilteringPasses(t *testing.T) {
	r := newRig(t, evolvedCfg()) // TorFiltering false (Northern China paths)
	r.srv.Listen(9001, func(c *tcpstack.Conn) { c.OnData = func(d []byte) { c.Write([]byte("srvhello")) } })
	c := r.cli.Connect(srvAddr, 9001)
	r.sim.RunFor(100 * time.Millisecond)
	hello := []byte{0x16, 3, 1, 0, 60, 0x01, 0, 0, 0}
	hello = append(hello, []byte{0xc0, 0x2b, 0xc0, 0x2f, 0x00, 0x9e, 0xcc, 0x14, 0xcc, 0x13}...)
	c.Write(hello)
	r.sim.RunFor(time.Second)
	if c.GotRST || !strings.Contains(string(c.Received()), "srvhello") {
		t.Fatalf("Tor on unfiltered path disturbed: rst=%v recv=%q", c.GotRST, c.Received())
	}
}

func TestVPNFiltering(t *testing.T) {
	cfg := evolvedCfg()
	cfg.VPNFiltering = true
	r := newRig(t, cfg)
	r.srv.Listen(1194, func(c *tcpstack.Conn) { c.OnData = func([]byte) {} })
	c := r.cli.Connect(srvAddr, 1194)
	r.sim.RunFor(100 * time.Millisecond)
	ovpn := []byte{0x00, 0x20, 0x38}
	ovpn = append(ovpn, bytes.Repeat([]byte{0xaa}, 32)...)
	c.Write(ovpn)
	r.sim.RunFor(time.Second)
	if !c.GotRST {
		t.Fatal("OpenVPN handshake not reset")
	}
}

func TestKeywordInServerResponseNotScanned(t *testing.T) {
	// The GFW only censors client→server traffic (§5.2).
	r := newRig(t, evolvedCfg())
	r.srv.Listen(8080, func(c *tcpstack.Conn) {
		c.OnData = func([]byte) {
			c.Write([]byte("HTTP/1.1 200 OK\r\n\r\n" + keyword))
		}
	})
	c := r.cli.Connect(srvAddr, 8080)
	r.sim.RunFor(100 * time.Millisecond)
	c.Write([]byte("GET /clean HTTP/1.1\r\n\r\n"))
	r.sim.RunFor(time.Second)
	if c.GotRST {
		t.Fatal("response keyword drew a reset")
	}
	if !bytes.Contains(c.Received(), []byte(keyword)) {
		t.Fatalf("response not received: %q", c.Received())
	}
}

func TestActiveProberIsRealTraffic(t *testing.T) {
	cfg := evolvedCfg()
	cfg.TorFiltering = true
	cfg.ActiveProbeDelay = 3 * time.Second
	r := newRig(t, cfg)
	appsim.ServeTorBridge(r.srv, 9001)

	// Watch actual probe packets cross the wire.
	var probeSyn, probeHello, bridgeReply bool
	r.path.Trace = func(ev netem.TraceEvent) {
		if ev.Pkt.TCP == nil {
			return
		}
		src := ev.Pkt.IP.Src
		if src[0] == 59 && src[1] == 66 { // prober address pool
			if ev.Pkt.TCP.FlagsOnly(packet.FlagSYN) {
				probeSyn = true
			}
			if len(ev.Pkt.Payload) > 0 {
				probeHello = true
			}
		}
		if ev.Event == "deliver" && ev.Where == "client" && src == srvAddr && len(ev.Pkt.Payload) > 0 {
			bridgeReply = true
		}
	}
	c := r.cli.Connect(srvAddr, 9001)
	r.sim.RunFor(100 * time.Millisecond)
	c.Write(appsim.TorClientHello())
	r.sim.RunFor(30 * time.Second)

	if !probeSyn || !probeHello {
		t.Fatalf("probe traffic missing: syn=%v hello=%v", probeSyn, probeHello)
	}
	_ = bridgeReply
	if !r.dev.IsIPBlocked(srvAddr) {
		t.Fatal("bridge not confirmed and blocked")
	}
	if r.countEvents("tor-probe-confirm") != 1 {
		t.Fatalf("confirm events = %d", r.countEvents("tor-probe-confirm"))
	}
	if r.dev.ProbeInFlight(srvAddr) {
		t.Fatal("probe should have completed")
	}
}

func TestActiveProberNegativeOnNonBridge(t *testing.T) {
	// A fingerprint match against an endpoint that answers probes with
	// an HTTP response (not TLS) is not confirmed: no IP block.
	cfg := evolvedCfg()
	cfg.TorFiltering = true
	cfg.ActiveProbeDelay = 3 * time.Second
	r := newRig(t, cfg)
	r.srv.Listen(9001, func(c *tcpstack.Conn) {
		c.OnData = func([]byte) { c.Write([]byte("HTTP/1.1 400 Bad Request\r\n\r\n")) }
	})
	c := r.cli.Connect(srvAddr, 9001)
	r.sim.RunFor(100 * time.Millisecond)
	c.Write(appsim.TorClientHello()) // fingerprinted anyway
	r.sim.RunFor(30 * time.Second)
	if r.dev.IsIPBlocked(srvAddr) {
		t.Fatal("non-bridge endpoint must not be null-routed")
	}
	if r.countEvents("tor-probe-negative") != 1 {
		t.Fatalf("negative events = %d", r.countEvents("tor-probe-negative"))
	}
}

func TestResponseCensorshipCleanRedirectPasses(t *testing.T) {
	// A redirect with no sensitive keyword in the Location header is
	// untouched even by a response-censoring device.
	cfg := evolvedCfg()
	cfg.ResponseCensorship = true
	r := newRig(t, cfg)
	appsim.ServeHTTPSRedirect(r.srv, 8443, "secure.example.com")
	c := r.cli.Connect(srvAddr, 8443)
	r.sim.RunFor(100 * time.Millisecond)
	c.Write([]byte("GET /search HTTP/1.1\r\nHost: x\r\n\r\n"))
	r.sim.RunFor(2 * time.Second)
	if c.GotRST {
		t.Fatal("clean redirect should pass")
	}
	if !bytes.Contains(c.Received(), []byte("301")) {
		t.Fatalf("no redirect received: %q", c.Received())
	}
}

func TestResponseCensorshipDetectsLocationHeader(t *testing.T) {
	cfg := evolvedCfg()
	cfg.ResponseCensorship = true
	cfg.Keywords = []string{"falun"} // ensure a fresh matcher keyword
	r := newRig(t, cfg)
	appsim.ServeHTTPSRedirect(r.srv, 8443, "site.example")
	c := r.cli.Connect(srvAddr, 8443)
	r.sim.RunFor(100 * time.Millisecond)
	// Desynchronize the client→server direction first (extra SYN →
	// resync, junk data → garbage sequence) so the request-side scanner
	// is blind; the only way the device can catch the keyword is in the
	// 301 Location header coming back.
	syn := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 8443, packet.FlagSYN, 1, 0, nil)
	syn.IP.TTL = 3
	syn.Finalize()
	r.path.SendFromClient(syn) // extra SYN: TCB → resync
	desync := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 8443,
		packet.FlagPSH|packet.FlagACK, c.SndNxt().Add(1<<20), c.RcvNxt(), []byte("z"))
	desync.IP.TTL = 3
	desync.Finalize()
	r.path.SendFromClient(desync) // desynchronize the client direction
	r.sim.RunFor(100 * time.Millisecond)
	c.Write([]byte("GET /?q=falun HTTP/1.1\r\nHost: site.example\r\n\r\n"))
	r.sim.RunFor(2 * time.Second)
	if r.countEvents("detect-response") == 0 {
		t.Fatalf("no response-side detection; events: %d request-side", r.countEvents("detect"))
	}
	if !c.GotRST {
		t.Fatal("response censorship should reset the connection")
	}
}
