package topo

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
)

// stubProc is a named no-op processor for binding tests.
type stubProc struct{ name string }

func (s stubProc) Name() string { return s.name }
func (s stubProc) Process(ctx *netem.Context, pkt *packet.Packet, dir netem.Direction) netem.Verdict {
	return netem.Pass
}

// linearSpec is a 2-hop chain in the shape the measurement rigs use:
// client — r0 — r1 — server, symmetric links, tap+middlebox on r0.
const linearSpec = "node:c(client) node:r0(router,label=r,tap=wiretap,proc=mbox) node:r1(router,label=r) node:s(server) " +
	"link:c>r0(lat=10ms,loss=0.006,mtu=1500) link:r0>c(lat=10ms,loss=0.006) " +
	"link:r0>r1(lat=1ms) link:r1>r0(lat=1ms) " +
	"link:r1>s(lat=1ms) link:s>r1(lat=1ms)"

// ecmpSpec has two parallel censor branches and an asymmetric reverse
// route — the fabric-only shape.
const ecmpSpec = "node:c(client) node:a(router) node:b1(router,tap=wiretap) node:b2(router,tap=wiretap) " +
	"node:x(router) node:rr(router) node:s(server) " +
	"link:c>a(lat=5ms) link:a>b1(lat=2ms) link:a>b2(lat=2ms) " +
	"link:b1>x(lat=2ms) link:b2>x(lat=2ms) link:x>s(lat=1ms) " +
	"link:s>rr(lat=3ms) link:rr>a(lat=3ms) link:a>c(lat=5ms) " +
	"link:b1>a(lat=2ms) link:b2>a(lat=2ms) " +
	"ecmp(seed=1)"

// BindMap is the simple Binder: a map from reference to processor
// chain. Missing references are errors.
type BindMap map[string][]netem.Processor

// Bind implements Binder.
func (m BindMap) Bind(node *netem.Node, a Attachment) error {
	procs, ok := m[a.Ref]
	if !ok {
		return fmt.Errorf("topo: unbound ref %q", a.Ref)
	}
	if a.Tap {
		node.Taps = append(node.Taps, procs...)
	} else {
		node.Processors = append(node.Processors, procs...)
	}
	return nil
}

// compile is NewProgram + Instantiate for one-shot use.
func compile(spec Spec, b Binder, opts Options) (*netem.Fabric, error) {
	p, err := NewProgram(spec)
	if err != nil {
		return nil, err
	}
	return instantiate(p, b, opts)
}

// instantiate is Instantiate on a new fabric.
func instantiate(p *Program, b Binder, opts Options) (*netem.Fabric, error) {
	f := new(netem.Fabric)
	if err := p.Instantiate(f, b, opts); err != nil {
		return nil, err
	}
	return f, nil
}

func testBinder() BindMap {
	return BindMap{
		"wiretap": {stubProc{name: "wiretap"}},
		"mbox":    {stubProc{name: "mbox"}},
	}
}

// TestCompileShapedChain verifies a chain's labels, bound attachments
// and per-link bandwidth carry through to the fabric.
func TestCompileShapedChain(t *testing.T) {
	spec := "node:c(client) node:r0(router,label=r,tap=wiretap,proc=mbox) node:s(server) " +
		"link:c>r0(lat=1ms,bw=1mbit,queue=16,red) link:r0>c(lat=1ms,bw=1mbit,queue=16,red) " +
		"link:r0>s(lat=1ms,bw=2mbit) link:s>r0(lat=1ms,bw=2mbit)"
	sim := netem.NewSimulator(1)
	f, err := compile(MustParseTopo(spec), testBinder(), Options{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	// Labels override names; taps precede processors.
	if d := f.Describe(); d != "client — r[tap:wiretap,mbox] — server" {
		t.Errorf("Describe = %q", d)
	}
	var arrivals []time.Duration
	f.Server = netem.EndpointFunc(func(*packet.Packet) { arrivals = append(arrivals, sim.Now()) })
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 9, 0, 1)
	for i := 0; i < 2; i++ {
		f.SendFromClient(packet.NewTCP(cli, 4000, srv, 80, packet.FlagACK, 1, 1, nil))
	}
	sim.Run(100)
	// 40-byte packets serialize in 320µs at 1 mbit/s and 160µs at
	// 2 mbit/s, each link adding 1 ms of propagation: the second packet
	// queues behind the first on the access link.
	us := time.Microsecond
	if want := []time.Duration{2480 * us, 2800 * us}; len(arrivals) != 2 || arrivals[0] != want[0] || arrivals[1] != want[1] {
		t.Errorf("arrivals = %v, want %v", arrivals, want)
	}
}

// TestCompileTwoNodeChain covers the degenerate client—server chain.
func TestCompileTwoNodeChain(t *testing.T) {
	sim := netem.NewSimulator(1)
	f, err := compile(MustParseTopo("node:c(client) node:s(server) link:c>s(lat=1ms) link:s>c(lat=1ms)"),
		nil, Options{Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if d := f.Describe(); d != "client — server" {
		t.Errorf("Describe = %q", d)
	}
	delivered := false
	f.Client = netem.EndpointFunc(func(*packet.Packet) { delivered = sim.Now() == time.Millisecond })
	f.SendFromServer(packet.NewTCP(packet.AddrFrom4(10, 9, 0, 1), 80, packet.AddrFrom4(10, 0, 0, 1), 4000, packet.FlagACK, 1, 1, nil))
	sim.Run(10)
	if !delivered {
		t.Error("server packet not delivered to the client after 1ms")
	}
}

func TestCompileFabricECMP(t *testing.T) {
	prog, err := NewProgram(MustParseTopo(ecmpSpec))
	if err != nil {
		t.Fatal(err)
	}
	f, err := instantiate(prog, testBinder(), Options{Sim: netem.NewSimulator(1)})
	if err != nil {
		t.Fatal(err)
	}
	cli, srv := packet.AddrFrom4(10, 0, 0, 1), packet.AddrFrom4(10, 9, 0, 1)
	flow := func(sport uint16) *packet.Packet {
		return packet.NewTCP(cli, sport, srv, 80, packet.FlagSYN, 1, 0, nil)
	}
	// Forward routes go through exactly one of the parallel branches and
	// are stable per flow. The endpoints route under their role labels.
	sawB1, sawB2 := false, false
	for sport := uint16(4000); sport < 4032; sport++ {
		route := strings.Join(f.Route(netem.ToServer, flow(sport)), ">")
		switch route {
		case "client>a>b1>x>server":
			sawB1 = true
		case "client>a>b2>x>server":
			sawB2 = true
		default:
			t.Fatalf("unexpected forward route %q", route)
		}
		if again := strings.Join(f.Route(netem.ToServer, flow(sport)), ">"); again != route {
			t.Fatalf("route for sport %d not stable: %q then %q", sport, route, again)
		}
	}
	if !sawB1 || !sawB2 {
		t.Errorf("ECMP never split: b1=%v b2=%v over 32 flows", sawB1, sawB2)
	}
	// Reverse route is the asymmetric return path, branch-free.
	if rev := strings.Join(f.Route(netem.ToClient, flow(4000)), ">"); rev != "server>rr>a>client" {
		t.Errorf("reverse route = %q, want server>rr>a>client", rev)
	}
	// Same spec, same seed → identical routing on a fresh instance.
	f2, err := instantiate(prog, testBinder(), Options{Sim: netem.NewSimulator(99)})
	if err != nil {
		t.Fatal(err)
	}
	for sport := uint16(4000); sport < 4032; sport++ {
		r1 := strings.Join(f.Route(netem.ToServer, flow(sport)), ">")
		r2 := strings.Join(f2.Route(netem.ToServer, flow(sport)), ">")
		if r1 != r2 {
			t.Fatalf("seeded ECMP not reproducible: sport %d routed %q vs %q", sport, r1, r2)
		}
	}
}

// TestNewProgramErrors locks in the semantic-validation vocabulary.
func TestNewProgramErrors(t *testing.T) {
	cases := []struct{ in, wantErr string }{
		{"node:s(server) link:s>s", "no client node"},
		{"node:c(client) link:c>c", "no server node"},
		{"node:c(client) node:c2(client) node:s(server)", "multiple client nodes"},
		{"node:c(client) node:s(server) node:s2(server)", "multiple server nodes"},
		{"node:c(client) node:c node:s(server) link:c>s link:s>c", `duplicate node "c"`},
		{"node:c(client,tap=x) node:s(server) link:c>s link:s>c", "endpoints cannot carry taps"},
		{"node:c(client) node:s(server) link:c>q link:s>c", `unknown node "q"`},
		{"node:c(client) node:s(server) link:c>c link:c>s link:s>c", "self-link"},
		{"node:c(client) node:s(server) link:c>s link:c>s link:s>c", "duplicate link c>s"},
		{"node:c(client) node:s(server) link:s>c", `no route from client "c" to server "s"`},
		{"node:c(client) node:s(server) link:c>s", `no route from server "s" to client "c"`},
		{"node:c(client) node:s(server) link:c>s(queue=4) link:s>c", "queue/red require bw"},
		{"node:c(client) node:s(server) link:c>s(red) link:s>c", "queue/red require bw"},
	}
	for _, tc := range cases {
		_, err := NewProgram(MustParseTopo(tc.in))
		if err == nil {
			t.Errorf("NewProgram(%q): want error containing %q, got nil", tc.in, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("NewProgram(%q): error %q does not contain %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestBindErrors covers unbound references and the nil binder.
func TestBindErrors(t *testing.T) {
	prog, err := NewProgram(MustParseTopo(linearSpec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := instantiate(prog, nil, Options{Sim: netem.NewSimulator(1)}); err == nil ||
		!strings.Contains(err.Error(), "no binder") {
		t.Errorf("nil binder: got %v", err)
	}
	if _, err := instantiate(prog, BindMap{}, Options{Sim: netem.NewSimulator(1)}); err == nil ||
		!strings.Contains(err.Error(), `unbound ref "wiretap"`) {
		t.Errorf("empty bind map: got %v", err)
	}
}
