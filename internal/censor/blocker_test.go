package censor

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/dnsmsg"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

var (
	blkCliAddr = packet.AddrFrom4(10, 0, 0, 1)
	blkSrvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

// blkRig is a client—blocker—server test topology: the blocker taps a
// mid-path hop and its flow filter sits in-path at the same hop.
type blkRig struct {
	sim *netem.Simulator
	blk *Blocker
	cli *tcpstack.Stack
	srv *tcpstack.Stack
}

func newBlkRig(t *testing.T, cfg BlockerConfig) *blkRig {
	t.Helper()
	r := &blkRig{sim: netem.NewSimulator(11)}
	r.blk = new(Blocker)
	r.blk.Reset("blk", cfg, r.sim.Rand())
	link := netem.Link{Latency: time.Millisecond}
	path := netem.NewChain(r.sim, 5, link, link)
	path.Node(3).Taps = []netem.Processor{r.blk} // the third router
	path.Node(3).Processors = []netem.Processor{r.blk.Filter()}
	r.cli = tcpstack.NewStack(blkCliAddr, tcpstack.Linux44(), r.sim)
	r.srv = tcpstack.NewStack(blkSrvAddr, tcpstack.Linux44(), r.sim)
	r.cli.AttachClient(path)
	r.srv.AttachServer(path)
	appsim.ServeHTTP(r.srv, 80)
	return r
}

func (r *blkRig) get(t *testing.T, host, uri string) *tcpstack.Conn {
	t.Helper()
	c := r.cli.Connect(blkSrvAddr, 80)
	r.sim.RunFor(100 * time.Millisecond)
	if c.State() == tcpstack.Established {
		c.Write(appsim.HTTPRequest(host, uri))
	}
	r.sim.RunFor(2 * time.Second)
	return c
}

// TestBlockerKeywordBlackhole checks the signature behaviour: a
// keyword match blackholes the flow — including the triggering packet
// itself — and the client sees silence, not a reset.
func TestBlockerKeywordBlackhole(t *testing.T) {
	r := newBlkRig(t, BlockerConfig{Keywords: []string{"ultrasurf"}, BlockDuration: time.Minute})
	c := r.get(t, "example.com", "/?q=ultrasurf")
	if appsim.HTTPResponseComplete(c.Received()) {
		t.Fatal("sensitive fetch completed through the blocker")
	}
	if c.GotRST {
		t.Fatal("blocker injected a reset; blackholing should be silent")
	}
	if r.blk.Stat("detect-keyword") == 0 || r.blk.Stat("block") == 0 || r.blk.Stat("drop-flow") == 0 {
		t.Fatalf("stats = %v", r.blk.Stats)
	}
	if !r.blk.PairBlocked(blkCliAddr, blkSrvAddr, r.sim.Now()) {
		t.Fatal("pair not blocked after detection")
	}
}

// TestBlockerCleanPasses checks an innocent fetch is untouched.
func TestBlockerCleanPasses(t *testing.T) {
	r := newBlkRig(t, BlockerConfig{Keywords: []string{"ultrasurf"}, BlockDuration: time.Minute})
	c := r.get(t, "example.com", "/index.html")
	if !appsim.HTTPResponseComplete(c.Received()) {
		t.Fatal("clean fetch did not complete")
	}
	if r.blk.Stat("detect-keyword") != 0 || r.blk.Stat("drop-flow") != 0 {
		t.Fatalf("stats = %v", r.blk.Stats)
	}
}

// TestBlockerBlockExpiry checks the residual blackhole lapses: a
// fresh connection after BlockDuration completes normally. Every
// retransmission of the swallowed sensitive request re-trips detection
// and refreshes the block, so the wait must outlast the client stack's
// retry schedule plus one full block window.
func TestBlockerBlockExpiry(t *testing.T) {
	r := newBlkRig(t, BlockerConfig{Keywords: []string{"ultrasurf"}, BlockDuration: 30 * time.Second})
	r.get(t, "example.com", "/?q=ultrasurf")
	r.sim.RunFor(3 * time.Minute)
	c := r.get(t, "example.com", "/index.html")
	if !appsim.HTTPResponseComplete(c.Received()) {
		t.Fatal("fetch after blackhole expiry did not complete")
	}
}

// TestBlockerBidirectional checks dir=both scans server→client data:
// a response echoing the keyword trips detection even though the
// request was clean.
func TestBlockerBidirectional(t *testing.T) {
	for _, bidir := range []bool{true, false} {
		r := newBlkRig(t, BlockerConfig{
			Keywords: []string{"ultrasurf"}, Bidirectional: bidir, BlockDuration: time.Minute,
		})
		// A server whose response carries the keyword even though the
		// request was clean (cf. the §3.3 response-censorship exclusion).
		r.srv.Listen(81, func(c *tcpstack.Conn) {
			c.OnData = func([]byte) {
				if bytes.Contains(c.Received(), []byte("\r\n\r\n")) {
					body := "ultra" + "surf is blocked here"
					c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 25\r\n\r\n" + body))
				}
			}
		})
		c := r.cli.Connect(blkSrvAddr, 81)
		r.sim.RunFor(100 * time.Millisecond)
		if c.State() == tcpstack.Established {
			c.Write(appsim.HTTPRequest("example.com", "/index.html"))
		}
		r.sim.RunFor(2 * time.Second)
		if got := r.blk.Stat("detect-keyword") > 0; got != bidir {
			t.Errorf("bidir=%v: response detection = %v", bidir, got)
		}
	}
}

// TestBlockerHostList checks the HTTP Host blocklist suffix-matches.
func TestBlockerHostList(t *testing.T) {
	r := newBlkRig(t, BlockerConfig{Hosts: []string{"facebook.com"}, BlockDuration: time.Minute})
	c := r.get(t, "www.facebook.com", "/profile")
	if appsim.HTTPResponseComplete(c.Received()) {
		t.Fatal("blocked-host fetch completed")
	}
	if r.blk.Stat("detect-host") == 0 {
		t.Fatalf("stats = %v", r.blk.Stats)
	}
	r2 := newBlkRig(t, BlockerConfig{Hosts: []string{"facebook.com"}, BlockDuration: time.Minute})
	c2 := r2.get(t, "notfacebook.com", "/profile")
	if !appsim.HTTPResponseComplete(c2.Received()) {
		t.Fatal("suffix match over-blocked an innocent host")
	}
}

// TestBlockerDNSPoison checks the resolver path: a query for a listed
// domain draws a forged answer carrying the configured address, and
// the resolver pair is then blackholed.
func TestBlockerDNSPoison(t *testing.T) {
	poison := packet.AddrFrom4(127, 0, 0, 1)
	r := newBlkRig(t, BlockerConfig{
		Domains: []string{"dropbox.com"}, PoisonDNS: true, PoisonAddr: poison,
		BlockDuration: time.Minute,
	})
	appsim.ServeDNSUDP(r.srv, appsim.Zone{"www.dropbox.com": packet.AddrFrom4(1, 2, 3, 4)})
	var answers []packet.Addr
	r.cli.ListenUDP(5353, func(src packet.Addr, srcPort uint16, payload []byte) {
		if m, err := dnsmsg.Decode(payload); err == nil && len(m.Answers) > 0 {
			answers = append(answers, m.Answers[0].Addr)
		}
	})
	q, _ := dnsmsg.NewQuery(42, "www.dropbox.com").Encode()
	r.cli.SendUDP(5353, blkSrvAddr, 53, q)
	r.sim.RunFor(time.Second)
	if len(answers) != 1 || answers[0] != poison {
		t.Fatalf("answers = %v, want exactly the forged %v (real answer blackholed)", answers, poison)
	}
	if r.blk.Stat("detect-dns") == 0 || r.blk.Stat("dns-poison") == 0 {
		t.Fatalf("stats = %v", r.blk.Stats)
	}
	// An innocent domain resolves normally.
	answers = nil
	q2, _ := dnsmsg.NewQuery(43, "www.example.com").Encode()
	r.cli.SendUDP(5353, blkSrvAddr, 53, q2)
	r.sim.RunFor(time.Second)
	if len(answers) != 0 {
		// The resolver pair is blackholed from the earlier detection, so
		// even innocent queries die until the block lapses.
		t.Fatalf("blackholed resolver pair still answered: %v", answers)
	}
}

// TestBlockerInstanceSurface exercises the Instance bookkeeping the
// experiment rig relies on: marks, stat clearing, obs-free operation.
func TestBlockerInstanceSurface(t *testing.T) {
	r := newBlkRig(t, BlockerConfig{Keywords: []string{"ultrasurf"}, BlockDuration: time.Minute})
	r.get(t, "example.com", "/?q=ultrasurf")
	first, verdict, last := r.blk.Marks()
	if first == 0 || verdict == 0 || last < verdict {
		t.Fatalf("marks = %v %v %v", first, verdict, last)
	}
	r.blk.ClearStats()
	if r.blk.Stat("detect-keyword") != 0 {
		t.Fatal("ClearStats left counts behind")
	}
	if r.blk.Name() != "blk" || !bytes.Contains([]byte(r.blk.Filter().Name()), []byte("blk")) {
		t.Fatalf("names = %q / %q", r.blk.Name(), r.blk.Filter().Name())
	}
}
