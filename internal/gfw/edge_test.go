package gfw

import (
	"strings"
	"testing"
	"time"

	"intango/internal/dnsmsg"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

func TestReassemblyWindowBoundsBuffer(t *testing.T) {
	cfg := evolvedCfg()
	cfg.ReassemblyWindow = 1024
	r := newRig(t, cfg)
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(100 * time.Millisecond)
	// Data far beyond the window is not buffered by the GFW.
	far := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt().Add(4096), c.RcvNxt(),
		[]byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n"))
	r.path.SendFromClient(far)
	r.sim.RunFor(time.Second)
	if r.countEvents("detect") != 0 {
		t.Fatal("out-of-window data must not be scanned")
	}
	// In-window data still is.
	near := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt(), c.RcvNxt(),
		[]byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n"))
	r.path.SendFromClient(near)
	r.sim.RunFor(time.Second)
	if r.countEvents("detect") != 1 {
		t.Fatal("in-window keyword missed")
	}
}

func TestBlocklistRefreshedByNewDetection(t *testing.T) {
	r := newRig(t, evolvedCfg())
	r.get(t, "/?q="+keyword)
	firstBlocks := r.countEvents("block")
	if firstBlocks == 0 {
		t.Fatal("no block recorded")
	}
	// 60 s later (block still active) the enforcement path handles a
	// new attempt; after expiry a fresh keyword re-blocks.
	r.sim.RunFor(2 * time.Minute)
	r.get(t, "/?q="+keyword)
	if r.countEvents("block") <= firstBlocks {
		t.Fatal("new detection should re-block")
	}
}

func TestTwoDevicesSameHopBothDetect(t *testing.T) {
	// Old and evolved devices co-deployed (§8): both see the traffic,
	// each keeps its own TCB.
	r := newRig(t, evolvedCfg())
	oldDev := NewDevice("gfw-old", Config{Model: ModelKhattak2013, Keywords: []string{keyword}, DetectionMissProb: -1}, r.sim.Rand())
	r.path.Node(3).Taps = append(r.path.Node(3).Taps, oldDev)
	c := r.get(t, "/?q="+keyword)
	if !c.GotRST {
		t.Fatal("not reset")
	}
	if r.dev.Stats["detect"] != 1 || oldDev.Stats["detect"] != 1 {
		t.Fatalf("detect: evolved=%d old=%d", r.dev.Stats["detect"], oldDev.Stats["detect"])
	}
}

func TestDNSTCPQuerySplitAcrossSegments(t *testing.T) {
	// The 2-byte length prefix and the qname arrive in separate
	// segments; only a reassembling device can extract the name.
	r := newRig(t, Config{Model: ModelEvolved2017, PoisonedDomains: []string{"dropbox.com"}, DetectionMissProb: -1})
	r.srv.Listen(53, func(c *tcpstack.Conn) { c.OnData = func([]byte) {} })
	c := r.cli.Connect(srvAddr, 53)
	r.sim.RunFor(100 * time.Millisecond)
	q, err := dnsmsg.NewQuery(5, "www.dropbox.com").Encode()
	if err != nil {
		t.Fatal(err)
	}
	framed := dnsmsg.FrameTCP(q)
	c.Write(framed[:7])
	r.sim.RunFor(50 * time.Millisecond)
	c.Write(framed[7:])
	r.sim.RunFor(2 * time.Second)
	if !c.GotRST {
		t.Fatal("split TCP DNS query not detected")
	}
}

func TestType2OnlyNoType1Resets(t *testing.T) {
	cfg := evolvedCfg()
	cfg.Type1, cfg.Type2 = false, true
	r := newRig(t, cfg)
	bare := 0
	withAck := 0
	r.path.Trace = func(ev netem.TraceEvent) {
		if ev.Event == "deliver" && ev.Where == "client" && ev.Pkt.TCP != nil && ev.Pkt.TCP.HasFlag(packet.FlagRST) {
			if ev.Pkt.TCP.HasFlag(packet.FlagACK) {
				withAck++
			} else {
				bare++
			}
		}
	}
	r.get(t, "/?q="+keyword)
	if bare != 0 {
		t.Fatalf("type-2-only device emitted %d bare RSTs", bare)
	}
	if withAck < 3 {
		t.Fatalf("type-2 resets = %d", withAck)
	}
}

func TestType1OnlyNoBlocklist(t *testing.T) {
	// §2.1: only type-2 devices enforce the 90-second block.
	cfg := evolvedCfg()
	cfg.Type1, cfg.Type2 = true, false
	r := newRig(t, cfg)
	r.get(t, "/?q="+keyword)
	if r.dev.PairBlocked(cliAddr, srvAddr, r.sim.Now()) {
		t.Fatal("type-1-only device must not blocklist")
	}
	// A follow-up clean request works immediately.
	c := r.get(t, "/clean.html")
	if c.GotRST {
		t.Fatal("clean request after type-1 reset should pass")
	}
}

func TestStatsAndStateAccessors(t *testing.T) {
	r := newRig(t, evolvedCfg())
	c := r.get(t, "/?q="+keyword)
	_ = c
	if r.dev.Stats["tcb-create"] == 0 || r.dev.Stats["detect"] != 1 {
		t.Fatalf("stats = %v", r.dev.Stats)
	}
	if r.dev.TCBCount() == 0 {
		t.Fatal("no TCBs tracked")
	}
	if _, ok := r.dev.TCBState(packet.FourTuple{}); ok {
		t.Fatal("bogus tuple should not resolve")
	}
	if r.dev.Config().BlockDuration != 90*time.Second {
		t.Fatalf("default block duration = %v", r.dev.Config().BlockDuration)
	}
	if r.dev.Name() != "gfw" {
		t.Fatalf("name = %q", r.dev.Name())
	}
}

func TestModelStrings(t *testing.T) {
	if ModelKhattak2013.String() == ModelEvolved2017.String() {
		t.Fatal("model names collide")
	}
	if !strings.Contains(ModelEvolved2017.String(), "2017") {
		t.Fatalf("evolved name = %q", ModelEvolved2017.String())
	}
}

func TestPairBlockedHelper(t *testing.T) {
	r := newRig(t, evolvedCfg())
	if r.dev.PairBlocked(cliAddr, srvAddr, 0) {
		t.Fatal("fresh pair blocked")
	}
	r.get(t, "/?q="+keyword)
	now := r.sim.Now()
	if !r.dev.PairBlocked(cliAddr, srvAddr, now) {
		t.Fatal("pair should be blocked")
	}
	// Symmetric in argument order.
	if !r.dev.PairBlocked(srvAddr, cliAddr, now) {
		t.Fatal("blocklist must be direction independent")
	}
	if r.dev.PairBlocked(cliAddr, srvAddr, now+2*time.Hour) {
		t.Fatal("block should expire")
	}
}

func TestKeywordCaseInsensitiveOnWire(t *testing.T) {
	r := newRig(t, evolvedCfg())
	c := r.get(t, "/?q=ULTRASURF")
	if !c.GotRST {
		t.Fatal("uppercase keyword missed")
	}
}

func TestStreamScannedPrefixImmutable(t *testing.T) {
	// White-box: once bytes are consumed by the scanner, later copies
	// must not replace them — even under the last-wins overlap policy.
	m := newRig(t, evolvedCfg())
	_ = m
	s := (*stream)(nil).reset(m.sim, 4096, m.dev.matcher, true)
	s.rebase(1000)
	if got := s.insert(1000, []byte("AAAA"), true); len(got) != 0 {
		t.Fatalf("junk matched: %v", got)
	}
	if s.scanned != 4 {
		t.Fatalf("scanned = %d", s.scanned)
	}
	// Overwrite attempt at the same range with the keyword.
	if got := s.insert(1000, []byte(keyword[:4]), true); len(got) != 0 {
		t.Fatal("scanned prefix was overwritten")
	}
	if string(s.contiguous()) != "AAAA" {
		t.Fatalf("prefix = %q", s.contiguous())
	}
}

func TestStreamOutOfOrderOverlapPolicies(t *testing.T) {
	mk := func() *stream {
		r := newRig(t, evolvedCfg())
		s := (*stream)(nil).reset(r.sim, 4096, r.dev.matcher, true)
		s.rebase(0)
		return s
	}
	// Last-wins: the newer copy of unscanned bytes prevails.
	s := mk()
	s.insert(10, []byte("XX"), true)
	s.insert(10, []byte("YY"), true)
	s.insert(0, []byte("0123456789"), true)
	if string(s.contiguous()) != "0123456789YY" {
		t.Fatalf("last-wins = %q", s.contiguous())
	}
	// First-wins: the older copy prevails.
	s2 := mk()
	s2.insert(10, []byte("XX"), false)
	s2.insert(10, []byte("YY"), false)
	s2.insert(0, []byte("0123456789"), false)
	if string(s2.contiguous()) != "0123456789XX" {
		t.Fatalf("first-wins = %q", s2.contiguous())
	}
}

func TestStreamKeywordAcrossInsertBoundary(t *testing.T) {
	r := newRig(t, evolvedCfg())
	s := (*stream)(nil).reset(r.sim, 4096, r.dev.matcher, true)
	s.rebase(500)
	half := len(keyword) / 2
	if got := s.insert(500, []byte(keyword[:half]), false); len(got) != 0 {
		t.Fatal("premature match")
	}
	got := s.insert(packet.Seq(500+half), []byte(keyword[half:]), false)
	if len(got) != 1 || got[0].Pattern != keyword {
		t.Fatalf("split keyword: %v", got)
	}
}

func TestTrustAfterServerACKDirect(t *testing.T) {
	// Hardened mode (§8): client data is scanned only once the server
	// acknowledges it.
	cfg := evolvedCfg()
	cfg.TrustDataAfterServerACK = true
	r := newRig(t, cfg)
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(100 * time.Millisecond)
	// Raw keyword data injected without server delivery: never ACKed,
	// never scanned.
	orphan := packet.NewTCP(cliAddr, c.LocalPort(), srvAddr, 80,
		packet.FlagPSH|packet.FlagACK, c.SndNxt().Add(1<<20), c.RcvNxt(),
		[]byte("GET /?q="+keyword+" HTTP/1.1\r\n\r\n"))
	orphan.IP.TTL = 3 // dies before the server: no ACK will come
	orphan.Finalize()
	r.path.SendFromClient(orphan)
	r.sim.RunFor(time.Second)
	if r.countEvents("detect") != 0 {
		t.Fatal("unacknowledged data scanned in hardened mode")
	}
	// A real request is ACKed by the server and then detected.
	c.Write([]byte("GET /?q=" + keyword + " HTTP/1.1\r\nHost: x\r\n\r\n"))
	r.sim.RunFor(2 * time.Second)
	if r.countEvents("detect") != 1 {
		t.Fatalf("acknowledged keyword not detected: %d", r.countEvents("detect"))
	}
}

func TestBlockIPHelper(t *testing.T) {
	r := newRig(t, evolvedCfg())
	addr := packet.AddrFrom4(1, 2, 3, 4)
	if r.dev.IsIPBlocked(addr) {
		t.Fatal("fresh address blocked")
	}
	r.dev.BlockIP(addr)
	if !r.dev.IsIPBlocked(addr) {
		t.Fatal("BlockIP did not stick")
	}
	filter := r.dev.IPFilter()
	if filter.Name() == "" {
		t.Fatal("filter must be named")
	}
}

func TestSampledBehaviourSetters(t *testing.T) {
	r := newRig(t, evolvedCfg())
	r.dev.SetRSTResyncs(true)
	if !r.dev.RSTResyncs() {
		t.Fatal("setter lost")
	}
	r.dev.SetSegmentLastWins(true)
	r.dev.SetRSTResyncs(false)
	if r.dev.RSTResyncs() {
		t.Fatal("setter lost")
	}
	if stTracking.String() == stResync.String() {
		t.Fatal("tcb state strings collide")
	}
}
