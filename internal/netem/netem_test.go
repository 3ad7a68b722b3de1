package netem

import (
	"strings"
	"testing"
	"time"

	"intango/internal/packet"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

func TestSimulatorOrdering(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.At(1*time.Millisecond, func() { got = append(got, 1) })
	s.At(1*time.Millisecond, func() { got = append(got, 11) }) // same time: FIFO by seq
	s.At(3*time.Millisecond, func() { got = append(got, 3) })
	s.Run(100)
	want := []int{1, 11, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSimulatorNestedScheduling(t *testing.T) {
	s := NewSimulator(1)
	fired := false
	s.At(time.Millisecond, func() {
		s.At(time.Millisecond, func() { fired = true })
	})
	s.Run(10)
	if !fired || s.Now() != 2*time.Millisecond {
		t.Fatalf("fired=%v now=%v", fired, s.Now())
	}
}

func TestSimulatorRunFor(t *testing.T) {
	s := NewSimulator(1)
	ran := 0
	s.At(time.Millisecond, func() { ran++ })
	s.At(10*time.Millisecond, func() { ran++ })
	s.RunFor(5 * time.Millisecond)
	if ran != 1 {
		t.Fatalf("ran = %d, want 1", ran)
	}
	if s.Now() != 5*time.Millisecond {
		t.Fatalf("Now = %v", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d", s.Pending())
	}
}

// newTestChain builds client — hops routers — server with 1 ms links.
func newTestChain(s *Simulator, hops int) *Fabric {
	return NewChain(s, hops, Link{Latency: time.Millisecond}, Link{Latency: time.Millisecond})
}

func TestPathDelivery(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 3)
	var atServer *packet.Packet
	p.Server = EndpointFunc(func(pkt *packet.Packet) { atServer = pkt })
	pkt := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 1, 0, nil)
	p.SendFromClient(pkt)
	s.Run(100)
	if atServer == nil {
		t.Fatal("packet not delivered")
	}
	if atServer.IP.TTL != 64-3 {
		t.Fatalf("TTL = %d, want 61", atServer.IP.TTL)
	}
	if s.Now() != 4*time.Millisecond {
		t.Fatalf("delivery time = %v, want 4ms", s.Now())
	}
}

func TestPathReverseDelivery(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 2)
	var atClient *packet.Packet
	p.Client = EndpointFunc(func(pkt *packet.Packet) { atClient = pkt })
	pkt := packet.NewTCP(srvAddr, 80, cliAddr, 4000, packet.FlagSYN|packet.FlagACK, 9, 2, nil)
	p.SendFromServer(pkt)
	s.Run(100)
	if atClient == nil {
		t.Fatal("packet not delivered to client")
	}
	if atClient.IP.TTL != 62 {
		t.Fatalf("TTL = %d, want 62", atClient.IP.TTL)
	}
}

func TestTTLExpiryGeneratesTimeExceeded(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 5)
	var atServer, atClient *packet.Packet
	p.Server = EndpointFunc(func(pkt *packet.Packet) { atServer = pkt })
	p.Client = EndpointFunc(func(pkt *packet.Packet) { atClient = pkt })
	pkt := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 77, 0, nil)
	pkt.IP.TTL = 3
	pkt.Finalize()
	p.SendFromClient(pkt)
	s.Run(100)
	if atServer != nil {
		t.Fatal("TTL-3 packet should not reach server across 5 hops")
	}
	if atClient == nil || atClient.ICMP == nil || atClient.ICMP.Type != packet.ICMPTimeExceeded {
		t.Fatalf("want ICMP time exceeded at client, got %v", atClient)
	}
	_, sp, _, seq, ok := atClient.ICMP.QuotedTCP()
	if !ok || sp != 4000 || seq != 77 {
		t.Fatalf("quote mismatch: %d %d %v", sp, seq, ok)
	}
	// The third router expires it. Routers answer from their node id,
	// and nodes count from the client (node 0): the third router is
	// node 3, 10.254.0.3.
	if want := packet.AddrFrom4(10, 254, 0, 3); atClient.IP.Src != want || nodeAddr(3) != want {
		t.Fatalf("expired at %v, want %v", atClient.IP.Src, want)
	}
}

type dropAll struct{}

func (dropAll) Name() string { return "dropall" }
func (dropAll) Process(ctx *Context, pkt *packet.Packet, dir Direction) Verdict {
	return Drop
}

type countTap struct{ n int }

func (c *countTap) Name() string { return "tap" }
func (c *countTap) Process(ctx *Context, pkt *packet.Packet, dir Direction) Verdict {
	c.n++
	return Pass
}

func TestProcessorDropAndTap(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 3)
	tap := &countTap{}
	p.Node(1).Processors = []Processor{tap}
	p.Node(2).Processors = []Processor{dropAll{}}
	delivered := false
	p.Server = EndpointFunc(func(pkt *packet.Packet) { delivered = true })
	p.SendFromClient(packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 0, 0, nil))
	s.Run(100)
	if delivered {
		t.Fatal("dropall should have stopped the packet")
	}
	if tap.n != 1 {
		t.Fatalf("tap saw %d packets, want 1", tap.n)
	}
}

type injector struct{}

func (injector) Name() string { return "injector" }
func (injector) Process(ctx *Context, pkt *packet.Packet, dir Direction) Verdict {
	if dir == ToServer && pkt.TCP != nil && pkt.TCP.HasFlag(packet.FlagSYN) {
		rst := packet.NewTCP(pkt.IP.Dst, pkt.TCP.DstPort, pkt.IP.Src, pkt.TCP.SrcPort,
			packet.FlagRST, pkt.TCP.Ack, 0, nil)
		ctx.Inject(ToClient, rst, 0)
	}
	return Pass
}

func TestInjectionTowardClient(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 4)
	p.Node(3).Processors = []Processor{injector{}}
	var atClient *packet.Packet
	p.Client = EndpointFunc(func(pkt *packet.Packet) {
		if pkt.TCP != nil {
			atClient = pkt
		}
	})
	delivered := false
	p.Server = EndpointFunc(func(pkt *packet.Packet) { delivered = true })
	p.SendFromClient(packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 0, 0, nil))
	s.Run(100)
	if !delivered {
		t.Fatal("on-path tap must not block the original packet")
	}
	if atClient == nil || !atClient.TCP.HasFlag(packet.FlagRST) {
		t.Fatal("injected RST not delivered to client")
	}
}

func TestLossIsDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) int {
		s := NewSimulator(seed)
		p := NewChain(s, 2, Link{Latency: time.Millisecond, LossRate: 0.5}, Link{Latency: time.Millisecond})
		n := 0
		p.Server = EndpointFunc(func(pkt *packet.Packet) { n++ })
		for i := 0; i < 100; i++ {
			p.SendFromClient(packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, packet.Seq(i), 0, nil))
		}
		s.Run(10000)
		return n
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed gave %d and %d deliveries", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("loss rate 0.5 delivered %d/100", a)
	}
}

func TestTraceRecordsSequence(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 2)
	var events []TraceEvent
	p.Trace = func(ev TraceEvent) { events = append(events, ev) }
	p.Server = EndpointFunc(func(pkt *packet.Packet) {})
	p.SendFromClient(packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 0, 0, nil))
	s.Run(100)
	var got []string
	for _, ev := range events {
		got = append(got, ev.Where+" "+ev.Event)
	}
	// The endpoints trace as client and server, the labels the
	// sequence diagrams match on; the routers as r.
	want := []string{"client send", "r fwd", "r fwd", "server deliver"}
	if strings.Join(got, ", ") != strings.Join(want, ", ") {
		t.Fatalf("trace = %v, want %v", got, want)
	}
	if events[0].String() == "" {
		t.Fatal("trace line empty")
	}
}

func TestDescribeTopology(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 2)
	p.Node(2).Processors = []Processor{&countTap{}}
	p.Node(1).Taps = []Processor{&countTap{}}
	d := p.Describe()
	if d != "client — r[tap:tap] — r[tap] — server" {
		t.Fatalf("Describe = %q", d)
	}
}

func TestMTUEnforcement(t *testing.T) {
	s := NewSimulator(1)
	p := NewChain(s, 2, Link{Latency: time.Millisecond, MTU: 100}, Link{Latency: time.Millisecond})
	delivered := 0
	p.Server = EndpointFunc(func(pkt *packet.Packet) { delivered++ })
	var events []string
	p.Trace = func(ev TraceEvent) {
		if ev.Where == "client" {
			events = append(events, ev.Event)
		}
	}
	big := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, 0, 0, make([]byte, 200))
	small := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, 0, 0, make([]byte, 20))
	p.SendFromClient(big)
	p.SendFromClient(small)
	s.Run(100)
	// An MTU is a link attribute, enforced at the link's egress: the
	// oversized datagram is sent, and gets its wire ID, before the
	// link drops it.
	if got := strings.Join(events, ","); delivered != 1 || got != "send,drop-mtu,send" {
		t.Fatalf("delivered=%d client events=%s, want 1 and send,drop-mtu,send", delivered, got)
	}
	if big.Lin.ID == 0 {
		t.Fatal("MTU-dropped datagram was never stamped")
	}
	// Fragments of the big packet fit and get through.
	big2 := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, 0, 0, make([]byte, 200))
	frags, err := packet.Fragment(big2, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frags {
		p.SendFromClient(f)
	}
	s.Run(1000)
	if delivered < 2 {
		t.Fatal("fragments did not pass the MTU limit")
	}
}

func TestRouterDropsBadIPChecksumAndOptions(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 2)
	delivered := 0
	p.Server = EndpointFunc(func(pkt *packet.Packet) { delivered++ })
	bad := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, 0, 0, nil)
	bad.IP.Checksum ^= 0x0101
	p.SendFromClient(bad)
	opt := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, 0, 0, nil)
	opt.IP.Options = []byte{7, 7, 4, 0}
	opt.IP.UpdateChecksum()
	p.SendFromClient(opt)
	good := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagACK, 0, 0, nil)
	p.SendFromClient(good)
	s.Run(100)
	if delivered != 1 {
		t.Fatalf("delivered = %d, want only the well-formed packet", delivered)
	}
}

func TestTapSeesExpiringPacket(t *testing.T) {
	// The on-path wiretap must observe packets that expire at its own
	// node — the property TTL-limited insertion packets depend on.
	s := NewSimulator(1)
	p := newTestChain(s, 4)
	tap := &countTap{}
	p.Node(3).Taps = []Processor{tap}
	pkt := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 0, 0, nil)
	pkt.IP.TTL = 3 // dies exactly at the third router, node 3
	pkt.Finalize()
	delivered := false
	p.Server = EndpointFunc(func(*packet.Packet) { delivered = true })
	p.SendFromClient(pkt)
	s.Run(100)
	if tap.n != 1 {
		t.Fatalf("tap saw %d packets, want 1", tap.n)
	}
	if delivered {
		t.Fatal("TTL-3 packet must not reach the server")
	}
	// In-path processors at the same node must NOT see it.
	p2 := newTestChain(s, 4)
	proc := &countTap{}
	p2.Node(3).Processors = []Processor{proc}
	pkt2 := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 0, 0, nil)
	pkt2.IP.TTL = 3
	pkt2.Finalize()
	p2.SendFromClient(pkt2)
	s.Run(100)
	if proc.n != 0 {
		t.Fatalf("in-path processor saw %d expiring packets, want 0", proc.n)
	}
}

func TestContextInjectDelay(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 3)
	var deliveredAt time.Duration
	p.Client = EndpointFunc(func(pkt *packet.Packet) { deliveredAt = s.Now() })
	inj := processorAdapter{fn: func(ctx *Context, pkt *packet.Packet, dir Direction) Verdict {
		if dir == ToServer {
			rst := packet.NewTCP(srvAddr, 2, cliAddr, 1, packet.FlagRST, 0, 0, nil)
			ctx.Inject(ToClient, rst, 50*time.Millisecond)
		}
		return Pass
	}}
	p.Node(2).Processors = []Processor{inj}
	p.SendFromClient(packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 0, 0, nil))
	p.Server = EndpointFunc(func(*packet.Packet) {})
	s.Run(100)
	// Reaches the second router at 2ms; injected +50ms; 2 links back = 2ms.
	if deliveredAt != 54*time.Millisecond {
		t.Fatalf("deliveredAt = %v, want 54ms", deliveredAt)
	}
}

type processorAdapter struct {
	fn func(ctx *Context, pkt *packet.Packet, dir Direction) Verdict
}

func (processorAdapter) Name() string { return "adapter" }
func (a processorAdapter) Process(ctx *Context, pkt *packet.Packet, dir Direction) Verdict {
	return a.fn(ctx, pkt, dir)
}
