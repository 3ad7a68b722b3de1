package core

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// recordingStrategy captures the flow state it was offered.
type recordingStrategy struct {
	flows []Flow
	pkts  []uint8 // flag sets seen
}

func (r *recordingStrategy) Outbound(f *Flow, pkt *packet.Packet) []Emission {
	r.flows = append(r.flows, *f)
	r.pkts = append(r.pkts, pkt.TCP.Flags)
	return []Emission{{Pkt: pkt}}
}

func TestEngineTracksFlowState(t *testing.T) {
	r := newTrialRig(t, evolved(), nil, nil)
	rec := &recordingStrategy{}
	r.engine.NewStrategy = func(packet.FourTuple) Strategy { return rec }
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(200 * time.Millisecond)
	if c.State() != tcpstack.Established {
		t.Fatalf("state = %v", c.State())
	}
	c.Write([]byte("GET / HTTP/1.1\r\n\r\n"))
	r.sim.RunFor(time.Second)

	if len(rec.flows) < 3 {
		t.Fatalf("strategy saw %d packets", len(rec.flows))
	}
	// SYN first: ISS recorded, handshake not done.
	if rec.pkts[0] != packet.FlagSYN {
		t.Fatalf("first packet flags %v", packet.FlagString(rec.pkts[0]))
	}
	if rec.flows[0].ISS != c.ISS() || rec.flows[0].HandshakeDone {
		t.Fatalf("SYN flow state: %+v", rec.flows[0])
	}
	// Handshake ACK: done, RcvNxt = server ISN+1.
	if !rec.flows[1].HandshakeDone {
		t.Fatalf("ACK flow state: %+v", rec.flows[1])
	}
	if rec.flows[1].ServerISN.Add(1) != rec.flows[1].RcvNxt {
		t.Fatalf("RcvNxt %d vs ServerISN %d", rec.flows[1].RcvNxt, rec.flows[1].ServerISN)
	}
	// Data packet: DataSent still 0 when the strategy runs (so
	// first-data triggers fire), SndNxt = ISS+1.
	dataFlow := rec.flows[2]
	if dataFlow.DataSent != 0 {
		t.Fatalf("DataSent = %d before first data", dataFlow.DataSent)
	}
	if dataFlow.SndNxt != c.ISS().Add(1) {
		t.Fatalf("SndNxt = %d", dataFlow.SndNxt)
	}
}

func TestEngineStrategyForAndReset(t *testing.T) {
	factory := builtin(t, "improved-teardown")
	r := newTrialRig(t, evolved(), factory, nil)
	c := r.cli.Connect(srvAddr, 80)
	r.sim.RunFor(100 * time.Millisecond)
	tuple := packet.FourTuple{SrcAddr: cliAddr, SrcPort: c.LocalPort(), DstAddr: srvAddr, DstPort: 80}
	if s, ok := r.engine.StrategyFor(tuple); !ok || s != factory() {
		t.Fatalf("StrategyFor = %v %v", s, ok)
	}
	r.engine.Reset(r.sim, r.path, r.cli, r.engine.Env)
	if _, ok := r.engine.StrategyFor(tuple); ok {
		t.Fatal("flows should be gone after Reset")
	}
}

func TestEngineOnOutboundConsumes(t *testing.T) {
	r := newTrialRig(t, evolved(), nil, nil)
	dropped := 0
	r.engine.OnOutbound = func(pkt *packet.Packet) bool {
		if pkt.UDP != nil {
			dropped++
			return false
		}
		return true
	}
	delivered := 0
	r.srv.ListenUDP(99, func(packet.Addr, uint16, []byte) { delivered++ })
	r.cli.SendUDP(1000, srvAddr, 99, []byte("x"))
	r.sim.RunFor(time.Second)
	if dropped != 1 || delivered != 0 {
		t.Fatalf("dropped=%d delivered=%d", dropped, delivered)
	}
}

// TestEngineIsFabricClientEnd checks that the engine emits from its
// fabric's client end with nothing in between: what it sends reaches
// the handler registered as the fabric's server endpoint inside the
// delivery event, an outbound packet gets its wire ID before strategies
// run, and every insertion wave sends a clone from the fabric's pool.
func TestEngineIsFabricClientEnd(t *testing.T) {
	sim := netem.NewSimulator(1)
	f := netem.NewChain(sim, 1, netem.Link{}, netem.Link{Latency: time.Millisecond})
	f.Pool = packet.NewPool()
	var got []string
	f.Server = netem.EndpointFunc(func(pkt *packet.Packet) {
		if len(pkt.Payload) > 0 {
			got = append(got, string(pkt.Payload)) // copy: netem recycles pkt after delivery
		}
	})
	e := NewEngine(sim, f, nil, DefaultEnv(5, sim.Rand()))
	factory := builtin(t, "teardown-rst/ttl")
	e.NewStrategy = func(packet.FourTuple) Strategy { return factory() }
	insertions, pooled := 0, 0
	e.OnOutboundRaw = func(em Emission) {
		if em.Insertion {
			insertions++
			if em.Pkt.Pooled() {
				pooled++
			}
		}
	}
	pkt := packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagPSH|packet.FlagACK, 1000, 2000, []byte("through the fabric"))
	e.Outbound(pkt)
	if pkt.Lin.ID == 0 {
		t.Error("the engine did not stamp the outbound packet's wire ID")
	}
	sim.RunFor(time.Second)
	if len(got) != 1 || got[0] != "through the fabric" {
		t.Errorf("server endpoint saw payloads %q", got)
	}
	if insertions == 0 || pooled != insertions {
		t.Errorf("%d of %d insertion clones came from the fabric's pool", pooled, insertions)
	}
}

func TestEngineNonTCPPassThrough(t *testing.T) {
	r := newTrialRig(t, evolved(), nil, nil)
	got := 0
	r.srv.ListenUDP(99, func(packet.Addr, uint16, []byte) { got++ })
	r.cli.SendUDP(1000, srvAddr, 99, []byte("ping"))
	r.sim.RunFor(time.Second)
	if got != 1 {
		t.Fatalf("udp delivered %d", got)
	}
}

func TestEngineRepeatWavesPreserveOrder(t *testing.T) {
	// Each wave must contain the insertions in their original order so
	// (SYN, desync) pairs keep their causality (Fig. 3).
	r := newTrialRig(t, evolved(), builtin(t, "creation-resync-desync"), nil)
	type sent struct {
		flags uint8
		seq   packet.Seq
	}
	var log []sent
	r.engine.OnOutboundRaw = func(em Emission) {
		if em.Insertion {
			log = append(log, sent{em.Pkt.TCP.Flags, em.Pkt.TCP.Seq})
		}
	}
	if got := r.runTrial(t); got != Success {
		t.Fatalf("outcome %v", got)
	}
	// Post-handshake waves: SYN then desync-data, three times.
	var postPairs int
	for i := 0; i+1 < len(log); i++ {
		if log[i].flags == packet.FlagSYN && log[i+1].flags == packet.FlagPSH|packet.FlagACK {
			postPairs++
		}
	}
	if postPairs < 3 {
		t.Fatalf("ordered SYN→desync pairs = %d, want ≥3:\n%v", postPairs, log)
	}
}

func TestEngineNoStrategySendsNothingExtra(t *testing.T) {
	r := newTrialRig(t, evolved(), nil, nil)
	count := 0
	r.engine.OnOutboundRaw = func(em Emission) {
		if em.Insertion {
			count++
		}
	}
	r.runTrial(t)
	if count != 0 {
		t.Fatalf("passthrough emitted %d insertions", count)
	}
}

func TestSharedStrategyInstanceAcrossFlows(t *testing.T) {
	// A Spec factory hands every connection the same *Compiled instance:
	// all trigger state must therefore live on the Flow. Two sequential
	// connections through one engine must each get their own insertions
	// — if the first connection's one-shot consumed shared state, the
	// second would sail out unprotected.
	r := newTrialRig(t, evolved(), builtin(t, "improved-teardown"), nil)
	insertions := make(map[uint16]int) // client port → insertion count
	r.engine.OnOutboundRaw = func(em Emission) {
		if em.Insertion {
			insertions[em.Pkt.TCP.SrcPort]++
		}
	}
	var ports []uint16
	for i := 0; i < 2; i++ {
		c := r.cli.Connect(srvAddr, 80)
		ports = append(ports, c.LocalPort())
		r.sim.RunFor(200 * time.Millisecond)
		if c.State() != tcpstack.Established {
			t.Fatalf("connection %d state = %v", i, c.State())
		}
		c.Write([]byte("GET /?q=" + keyword + " HTTP/1.1\r\nHost: example.com\r\n\r\n"))
		r.sim.RunFor(5 * time.Second)
		if !bytes.Contains(c.Received(), []byte("200 OK")) {
			t.Fatalf("connection %d did not evade", i)
		}
	}
	if ports[0] == ports[1] {
		t.Fatalf("both connections used port %d", ports[0])
	}
	for i, p := range ports {
		if insertions[p] == 0 {
			t.Errorf("connection %d (port %d) emitted no insertions: one-shot state leaked across flows", i, p)
		}
	}
}

func TestWestChamberKillsOwnConnection(t *testing.T) {
	r := newTrialRig(t, evolved(), builtin(t, "west-chamber"), nil)
	if got := r.runTrial(t); got != Failure1 {
		t.Fatalf("west-chamber outcome = %v, want failure-1 (its bare RST reaches the server)", got)
	}
}

func TestMD5RequestAgainstHardenedGFW(t *testing.T) {
	cfg := evolved()
	cfg.ValidateMD5 = true // §8 hardened censor
	r := newTrialRig(t, cfg, builtin(t, "md5-request"), nil)
	// Against a modern server the MD5-tagged request is ignored by the
	// server too: Failure 1.
	if got := r.runTrial(t); got != Failure1 {
		t.Fatalf("vs linux-4.4: %v, want failure-1", got)
	}
	// Against a pre-RFC-2385 server it sails through.
	r2 := newTrialRig(t, cfg, builtin(t, "md5-request"), nil)
	r2.srv.Profile = tcpstack.Linux2437()
	if got := r2.runTrial(t); got != Success {
		t.Fatalf("vs linux-2.4.37: %v, want success", got)
	}
	_ = gfw.Config{}
}

// TestReusedTupleGetsFreshFlow: a second connection on a finished
// connection's 4-tuple, which a long-running engine sees once the
// client's ephemeral ports wrap, opens a fresh flow with a fresh
// strategy, so its handshake trigger fires again and its keyword goes
// out protected.
func TestReusedTupleGetsFreshFlow(t *testing.T) {
	r := newTrialRig(t, evolved(), nil, nil)
	factory := builtin(t, "teardown-reversal")
	strategies := 0
	r.engine.NewStrategy = func(packet.FourTuple) Strategy {
		strategies++
		return factory()
	}
	synacks := make([]int, 2) // handshake-trigger insertions per connection
	conn := 0
	r.engine.OnOutboundRaw = func(em Emission) {
		if em.Insertion && em.Pkt.TCP.FlagsOnly(packet.FlagSYN|packet.FlagACK) {
			synacks[conn]++
		}
	}
	for conn = 0; conn < 2; conn++ {
		c := r.cli.ConnectFrom(40000, srvAddr, 80)
		r.sim.RunFor(2 * time.Second)
		if c.State() != tcpstack.Established {
			t.Fatalf("connection %d state = %v", conn, c.State())
		}
		c.Write([]byte("GET /?q=" + keyword + " HTTP/1.1\r\nHost: example.com\r\n\r\n"))
		r.sim.RunFor(5 * time.Second)
		if !bytes.Contains(c.Received(), []byte("200 OK")) {
			t.Fatalf("connection %d on the reused tuple did not evade (detections: %d)", conn, r.dev.Stats["detect"])
		}
		c.Close()
		r.sim.RunFor(5 * time.Second)
	}
	if strategies != 2 {
		t.Errorf("engine built %d strategies for two connections on one tuple, want 2", strategies)
	}
	for i, n := range synacks {
		if n == 0 {
			t.Errorf("connection %d sent no handshake-trigger insertion", i)
		}
	}
}

// TestRetransmittedSYNKeepsFlow: a SYN resent with its flow's ISS is a
// retransmission, not a new connection, so the flow and its strategy
// stay.
func TestRetransmittedSYNKeepsFlow(t *testing.T) {
	r := newTrialRig(t, evolved(), nil, nil)
	strategies := 0
	r.engine.NewStrategy = func(packet.FourTuple) Strategy {
		strategies++
		return nil
	}
	for i := 0; i < 3; i++ {
		r.engine.Outbound(packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagSYN, 7, 0, nil))
	}
	if strategies != 1 {
		t.Errorf("three copies of one SYN built %d strategies, want 1", strategies)
	}
}

// StrategyFor returns the live strategy instance for a flow, if any.
func (e *Engine) StrategyFor(tuple packet.FourTuple) (Strategy, bool) {
	fs, ok := e.flows[tuple]
	if !ok || fs.strat == nil {
		return nil, false
	}
	return fs.strat, true
}
