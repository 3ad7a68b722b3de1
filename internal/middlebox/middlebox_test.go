package middlebox

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

// lab builds a three-router chain with the given middlebox chain at
// the second router and records what reaches the server.
type lab struct {
	sim      *netem.Simulator
	path     *netem.Fabric
	received []*packet.Packet
}

func newLab(procs []netem.Processor) *lab {
	l := &lab{sim: netem.NewSimulator(5)}
	l.path = netem.NewChain(l.sim, 3, netem.Link{}, netem.Link{Latency: time.Millisecond})
	l.path.Node(2).Processors = procs
	l.path.Server = netem.EndpointFunc(func(pkt *packet.Packet) { l.received = append(l.received, pkt) })
	l.path.Client = netem.EndpointFunc(func(pkt *packet.Packet) {})
	return l
}

func (l *lab) send(pkts ...*packet.Packet) {
	for _, p := range pkts {
		l.path.SendFromClient(p)
	}
	l.sim.Run(10000)
}

func data(flags uint8, seq packet.Seq, payload string) *packet.Packet {
	return packet.NewTCP(cliAddr, 4000, srvAddr, 80, flags, seq, 1, []byte(payload))
}

func TestFragmentDropper(t *testing.T) {
	l := newLab([]netem.Processor{FragmentDropper{}})
	p := data(packet.FlagACK, 1, "0123456789012345678901234567890123456789012345678901234567890123456789")
	frags, err := packet.Fragment(p, 60)
	if err != nil {
		t.Fatal(err)
	}
	l.send(frags...)
	if len(l.received) != 0 {
		t.Fatalf("%d fragments leaked", len(l.received))
	}
	l.send(data(packet.FlagACK, 1, "whole"))
	if len(l.received) != 1 {
		t.Fatal("whole packet should pass")
	}
}

func TestFragmentReassembler(t *testing.T) {
	l := newLab([]netem.Processor{NewFragmentReassembler()})
	payload := bytes.Repeat([]byte("x"), 100)
	p := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagACK, 1, 1, payload)
	p.IP.ID = 3
	p.Finalize()
	frags, err := packet.Fragment(p, 60)
	if err != nil || len(frags) < 2 {
		t.Fatalf("frags=%d err=%v", len(frags), err)
	}
	l.send(frags...)
	if len(l.received) != 1 {
		t.Fatalf("received %d packets, want 1 reassembled", len(l.received))
	}
	got := l.received[0]
	if got.IP.IsFragment() || !bytes.Equal(got.Payload, payload) {
		t.Fatalf("bad reassembly: frag=%v len=%d", got.IP.IsFragment(), len(got.Payload))
	}
}

func TestChecksumValidator(t *testing.T) {
	l := newLab([]netem.Processor{ChecksumValidator{}})
	bad := data(packet.FlagACK, 1, "bad")
	bad.TCP.Checksum ^= 0xff
	good := data(packet.FlagACK, 1, "good")
	l.send(bad, good)
	if len(l.received) != 1 || string(l.received[0].Payload) != "good" {
		t.Fatalf("received %d", len(l.received))
	}
}

func TestFlaglessDropper(t *testing.T) {
	l := newLab([]netem.Processor{FlaglessDropper{}})
	l.send(data(0, 1, "flagless"), data(packet.FlagACK, 1, "flagged"))
	if len(l.received) != 1 || string(l.received[0].Payload) != "flagged" {
		t.Fatalf("received %d", len(l.received))
	}
}

func TestFlagDropperProbabilistic(t *testing.T) {
	l := newLab(nil)
	l.path.Node(2).Processors = []netem.Processor{NewFlagDropper("fin", packet.FlagFIN, 0.5, l.sim.Rand())}
	for i := 0; i < 200; i++ {
		l.send(data(packet.FlagFIN|packet.FlagACK, packet.Seq(i), ""))
	}
	if n := len(l.received); n == 0 || n == 200 {
		t.Fatalf("passed %d/200 FINs with p=0.5", n)
	}
	// Server→client FINs are untouched (client-side boxes police
	// outbound insertion packets).
	before := len(l.received)
	l.path.SendFromServer(packet.NewTCP(srvAddr, 80, cliAddr, 4000, packet.FlagFIN|packet.FlagACK, 1, 1, nil))
	l.sim.Run(1000)
	_ = before
}

func TestStatefulFirewallKillsAfterRST(t *testing.T) {
	fw := NewStatefulFirewall("fw", false)
	l := newLab([]netem.Processor{fw})
	syn := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 100, 0, nil)
	l.send(syn)
	l.send(data(packet.FlagACK, 101, "fine"))
	if len(l.received) != 2 {
		t.Fatalf("pre-RST: %d", len(l.received))
	}
	rst := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagRST, 101, 0, nil)
	l.send(rst) // forwarded, but kills the state
	if !fw.ConnDead(rst.Tuple()) {
		t.Fatal("firewall state not dead after RST")
	}
	l.send(data(packet.FlagACK, 101, "blocked"))
	if len(l.received) != 3 { // syn, fine, rst — not "blocked"
		t.Fatalf("post-RST: %d packets", len(l.received))
	}
}

func TestStatefulFirewallSeqValidation(t *testing.T) {
	fw := NewStatefulFirewall("fw", true)
	l := newLab([]netem.Processor{fw})
	l.send(packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 100, 0, nil))
	l.path.SendFromServer(packet.NewTCP(srvAddr, 80, cliAddr, 4000, packet.FlagSYN|packet.FlagACK, 500, 101, nil))
	l.sim.Run(1000)
	l.send(data(packet.FlagACK, 101, "ok"))
	n := len(l.received)
	// Wildly out-of-window junk is dropped by the seq-checking box.
	l.send(data(packet.FlagACK, 101+1<<20, "junk"))
	if len(l.received) != n {
		t.Fatal("out-of-window packet passed a seq-validating firewall")
	}
}

func TestBuildProfilesMatchTable2(t *testing.T) {
	sim := netem.NewSimulator(1)
	for _, p := range AllProfiles() {
		procs := BuildProfile(p, sim.Rand())
		if len(procs) == 0 {
			t.Fatalf("profile %s empty", p)
		}
	}
	if BuildProfile("nope", sim.Rand()) != nil {
		t.Fatal("unknown profile should be nil")
	}
	// Aliyun drops fragments; the others reassemble.
	aliyun := BuildProfile(ProfileAliyun, sim.Rand())
	if _, ok := aliyun[0].(FragmentDropper); !ok {
		t.Fatal("aliyun must drop fragments")
	}
	tj := BuildProfile(ProfileUnicomTJ, sim.Rand())
	foundCk := false
	for _, proc := range tj {
		if _, ok := proc.(ChecksumValidator); ok {
			foundCk = true
		}
	}
	if !foundCk {
		t.Fatal("unicom-tj must validate checksums")
	}
}

func TestProcessorNames(t *testing.T) {
	sim := netem.NewSimulator(1)
	procs := []netem.Processor{
		FragmentDropper{},
		NewFragmentReassembler(),
		ChecksumValidator{},
		FlaglessDropper{},
		NewFlagDropper("fin-dropper", packet.FlagFIN, 0.5, sim.Rand()),
		NewStatefulFirewall("fw", true),
	}
	seen := map[string]bool{}
	for _, p := range procs {
		name := p.Name()
		if name == "" || seen[name] {
			t.Fatalf("bad or duplicate name %q", name)
		}
		seen[name] = true
	}
}

func TestStatefulFirewallRSTHonorProb(t *testing.T) {
	sim := netem.NewSimulator(3)
	fw := NewStatefulFirewall("fw", false)
	fw.SetRSTHonorProb(0, sim.Rand()) // never honors
	l := newLab([]netem.Processor{fw})
	l.send(packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 100, 0, nil))
	rst := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagRST, 101, 0, nil)
	l.send(rst)
	if fw.ConnDead(rst.Tuple()) {
		t.Fatal("probability-0 firewall honored the RST")
	}
	l.send(data(packet.FlagACK, 101, "still flows"))
	if len(l.received) != 3 {
		t.Fatalf("received %d", len(l.received))
	}
}

// ConnDead reports whether the firewall killed the connection state for
// the tuple.
func (f *StatefulFirewall) ConnDead(t packet.FourTuple) bool {
	c, ok := f.conns[t.Canonical()]
	return ok && c.dead
}
