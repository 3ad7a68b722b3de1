package netem

import (
	"testing"
	"time"

	"intango/internal/packet"
)

// mkSeg builds a bare client→server TCP packet (40 wire bytes).
func mkSeg(t *testing.T) *packet.Packet {
	t.Helper()
	return packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagACK, 1, 1, nil)
}

// shapedChain is one router between the endpoints, joined by 1 ms
// links, with the access link shaped to rate and queue.
func shapedChain(s *Simulator, rate int64, queue int) *Fabric {
	ms := time.Millisecond
	return NewChain(s, 1, Link{Latency: ms, Rate: rate, Queue: queue}, Link{Latency: ms})
}

func TestShapedPathSerializesBackToBack(t *testing.T) {
	s := NewSimulator(1)
	// 40-byte packets at 320 kbit/s serialize in exactly 1ms each.
	p := shapedChain(s, int64(8*1000*wireSize(mkSeg(t))), 0)
	var arrivals []time.Duration
	p.Server = EndpointFunc(func(pkt *packet.Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 3; i++ {
		p.SendFromClient(mkSeg(t))
	}
	s.Run(100)
	// Access link: 1ms propagation + n×1ms serialization; next link: 1ms.
	want := []time.Duration{3 * time.Millisecond, 4 * time.Millisecond, 5 * time.Millisecond}
	if len(arrivals) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(arrivals), len(want))
	}
	for i, at := range arrivals {
		if at != want[i] {
			t.Fatalf("packet %d delivered at %v, want %v", i, at, want[i])
		}
	}
}

func TestShapedPathTailDrop(t *testing.T) {
	s := NewSimulator(1)
	p := shapedChain(s, 1000, 2) // 40ms more per 40-byte packet: all five queue
	delivered := 0
	p.Server = EndpointFunc(func(pkt *packet.Packet) { delivered++ })
	for i := 0; i < 5; i++ {
		p.SendFromClient(mkSeg(t))
	}
	s.Run(100)
	if delivered != 2 {
		t.Fatalf("delivered %d packets, want 2 (queue limit)", delivered)
	}
	if got := p.counts[evDropQueue]; got != 3 {
		t.Fatalf("drop-queue count = %d, want 3", got)
	}
}

func TestUnratedPathAllocatesNoShapers(t *testing.T) {
	s := NewSimulator(1)
	p := newTestChain(s, 2)
	p.Server = EndpointFunc(func(pkt *packet.Packet) {})
	p.SendFromClient(mkSeg(t))
	s.Run(100)
	if p.shapers != nil {
		t.Fatal("unrated chain built shaper state")
	}
}

// TestShapedFabricSerializesAndDescribes shapes one direction of one
// link of a graph: only that direction queues.
func TestShapedFabricSerializesAndDescribes(t *testing.T) {
	s := NewSimulator(1)
	ms := time.Millisecond
	rate := int64(8 * 1000 * wireSize(mkSeg(t)))
	topo, err := NewTopology(
		[]Vertex{{Label: "c"}, {Label: "r", Router: true}, {Label: "v"}},
		[]Edge{
			{From: 0, To: 1, Link: Link{Latency: ms, Rate: rate, Queue: 16}},
			{From: 1, To: 0, Link: Link{Latency: ms}},
			{From: 1, To: 2, Link: Link{Latency: ms}},
			{From: 2, To: 1, Link: Link{Latency: ms}},
		}, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	f := NewFabric(s, topo)
	var arrivals []time.Duration
	f.Server = EndpointFunc(func(pkt *packet.Packet) { arrivals = append(arrivals, s.Now()) })
	for i := 0; i < 2; i++ {
		f.SendFromClient(mkSeg(t))
	}
	var back []time.Duration
	f.Client = EndpointFunc(func(pkt *packet.Packet) { back = append(back, s.Now()) })
	for i := 0; i < 2; i++ {
		f.SendFromServer(mkSeg(t))
	}
	s.Run(100)
	want := []time.Duration{3 * time.Millisecond, 4 * time.Millisecond}
	if len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Fatalf("arrivals = %v, want %v", arrivals, want)
	}
	if len(back) != 2 || back[0] != 2*ms || back[1] != 2*ms {
		t.Fatalf("unshaped reverse arrivals = %v, want both at 2ms", back)
	}
	if d := f.Describe(); d != "client — r — server" {
		t.Fatalf("Describe = %q", d)
	}
}

func TestFormatRate(t *testing.T) {
	cases := map[int64]string{
		1_000_000:     "1mbit",
		500_000:       "500kbit",
		2_000_000_000: "2gbit",
		12_345:        "12345bit",
	}
	for bits, want := range cases {
		if got := FormatRate(bits); got != want {
			t.Errorf("FormatRate(%d) = %q, want %q", bits, got, want)
		}
	}
}
