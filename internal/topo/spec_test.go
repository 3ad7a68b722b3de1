package topo

import (
	"strings"
	"testing"
	"time"
)

// TestParseTopoRoundTrip checks canonical round-tripping: parsing a
// canonical string and re-rendering reproduces it exactly, and parsing
// a sloppy encoding canonicalizes it.
func TestParseTopoRoundTrip(t *testing.T) {
	canonical := []string{
		"node:c(client) node:s(server) link:c>s(lat=1ms)",
		"node:c(client) node:r0(router,label=r) node:s(server) " +
			"link:c>r0(lat=10ms,loss=0.006) link:r0>c(lat=10ms,loss=0.006) " +
			"link:r0>s(lat=1ms) link:s>r0(lat=1ms)",
		"node:c(client) node:g(router,tap=gfw-new,proc=ipf:gfw-new) node:s(server) " +
			"link:c>g(lat=2ms,mtu=1500) link:g>c(lat=2ms) link:g>s(lat=1ms) link:s>g(lat=1ms) " +
			"ecmp(seed=42)",
		"node:c(client) node:a(router) node:b1(router) node:b2(router) node:s(server) " +
			"link:c>a link:a>b1 link:a>b2 link:b1>s link:b2>s link:s>a link:a>c " +
			"ecmp(seed=7)",
		"node:c(client) node:r0(router) node:s(server) " +
			"link:c>r0(lat=1ms,bw=1mbit,queue=16) link:r0>c(lat=1ms,bw=1mbit,queue=16) " +
			"link:r0>s(lat=1ms) link:s>r0(lat=1ms)",
		"node:c(client) node:s(server) link:c>s(lat=1ms,bw=500kbit,red) link:s>c(lat=1ms,bw=2gbit)",
		// Sub-millisecond latencies spell the micro sign "u", or the
		// canonical text would not parse back.
		"node:c(client) node:s(server) link:c>s(lat=1.5us) link:s>c(lat=999ns)",
		"node:c(client) node:b1(router,censor=gfw2017) node:b2(router,censor=turkmenistan) node:s(server) " +
			"link:c>b1 link:c>b2 link:b1>s link:b2>s link:s>b1 " +
			"ecmp(seed=9)",
	}
	for _, in := range canonical {
		spec, err := ParseTopo(in)
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", in, err)
		}
		if got := spec.String(); got != in {
			t.Errorf("round trip:\n in:  %s\n out: %s", in, got)
		}
		// A second pass must be a fixed point.
		again := mustParseTopo(t, spec.String())
		if again.String() != spec.String() {
			t.Errorf("String not a fixed point for %q", in)
		}
	}

	sloppy := []struct{ in, want string }{
		{
			"  node:c( client )\n node:s(server)\tlink:c>s( lat=1ms , loss=0.5 )",
			"node:c(client) node:s(server) link:c>s(lat=1ms,loss=0.5)",
		},
		{
			// Statements may interleave; String reorders nodes-links-ecmp.
			"node:c(client) link:c>s ecmp(seed=3) node:s(server) link:s>c",
			"node:c(client) node:s(server) link:c>s link:s>c ecmp(seed=3)",
		},
		{
			// 1500us canonicalizes to 1.5ms, 0.50 to 0.5.
			"node:c(client) node:s(server) link:c>s(lat=1500us,loss=0.50)",
			"node:c(client) node:s(server) link:c>s(lat=1.5ms,loss=0.5)",
		},
		{
			// Rates canonicalize to the largest exact unit.
			"node:c(client) node:s(server) link:c>s(bw=1000kbit) link:s>c(bw=1536bit)",
			"node:c(client) node:s(server) link:c>s(bw=1mbit) link:s>c(bw=1536bit)",
		},
	}
	for _, tc := range sloppy {
		spec, err := ParseTopo(tc.in)
		if err != nil {
			t.Fatalf("ParseTopo(%q): %v", tc.in, err)
		}
		if got := spec.String(); got != tc.want {
			t.Errorf("canonicalize %q:\n got:  %s\n want: %s", tc.in, got, tc.want)
		}
	}
}

// TestParseTopoFields spot-checks the parsed structure, not just the
// re-rendering.
func TestParseTopoFields(t *testing.T) {
	spec := mustParseTopo(t, "node:c(client) node:g(router,label=r,tap=gfw-new,proc=mbox) node:s(server) "+
		"link:c>g(lat=10ms,loss=0.006,mtu=1500) link:g>c(lat=10ms) link:g>s(lat=1ms) link:s>g(lat=1ms) "+
		"ecmp(seed=99)")
	if len(spec.Nodes) != 3 || len(spec.Links) != 4 {
		t.Fatalf("got %d nodes, %d links", len(spec.Nodes), len(spec.Links))
	}
	g := spec.Nodes[1]
	if g.Name != "g" || g.Kind != KindRouter || g.Label != "r" {
		t.Errorf("node g parsed as %+v", g)
	}
	if len(g.Attach) != 2 || !g.Attach[0].Tap || g.Attach[0].Ref != "gfw-new" ||
		g.Attach[1].Tap || g.Attach[1].Ref != "mbox" {
		t.Errorf("attachments parsed as %+v", g.Attach)
	}
	z := mustParseTopo(t, "node:z(router,censor=tor-prober)").Nodes[0]
	if len(z.Attach) != 1 || !z.Attach[0].Censor || z.Attach[0].Tap || z.Attach[0].Ref != "tor-prober" {
		t.Errorf("censor attachment parsed as %+v", z.Attach)
	}
	l := spec.Links[0]
	if l.From != "c" || l.To != "g" || l.Latency != 10*time.Millisecond || l.Loss != 0.006 || l.MTU != 1500 {
		t.Errorf("link c>g parsed as %+v", l)
	}
	if spec.ECMPSeed != 99 {
		t.Errorf("seed = %d, want 99", spec.ECMPSeed)
	}
}

// TestParseTopoErrors locks in the error vocabulary, mirroring the
// strategy-spec parser's error table.
func TestParseTopoErrors(t *testing.T) {
	cases := []struct{ in, wantErr string }{
		{"", "topo: empty input"},
		{"   \n\t ", "topo: empty input"},
		{"nodes:c", "expected node:, link: or ecmp"},
		{"node:", "node: missing name"},
		{"node:c(", "expected attribute"},
		{"node:c(client", "expected ',' or ')'"},
		{"node:c(client server)", "expected ',' or ')'"},
		{"node:c(bogus)", `unknown attribute "bogus"`},
		{"node:c(client,router)", `conflicting kind "router"`},
		{"node:c(label=)", `missing value for "label"`},
		{"node:c(tap=)", `missing value for "tap"`},
		{"node:c(censor=)", `missing value for "censor"`},
		{"link:", "link: missing source node"},
		{"link:a", "expected '>'"},
		{"link:a>", "missing target node"},
		{"link:a>b(lat=fast)", `bad lat "fast"`},
		{"link:a>b(lat=-1ms)", `bad lat "-1ms"`},
		{"link:a>b(loss=1.5)", `bad loss "1.5"`},
		{"link:a>b(loss=1)", `bad loss "1"`},
		{"link:a>b(mtu=0)", `bad mtu "0"`},
		{"link:a>b(mtu=huge)", `bad mtu "huge"`},
		{"link:a>b(speed=9)", `unknown attribute "speed"`},
		{"link:a>b(bw=1)", `bad bw "1"`},
		{"link:a>b(bw=fastbit)", `bad bw "fastbit"`},
		{"link:a>b(bw=0mbit)", `bad bw "0mbit"`},
		{"link:a>b(queue=0)", `bad queue "0"`},
		{"link:a>b(bw=1mbit,queue=none)", `bad queue "none"`},
		{"link:a>b(blue)", `unknown attribute "blue"`},
		{"ecmp", "want ecmp(seed=N)"},
		{"ecmp(seed=0)", "seed must be nonzero"},
		{"ecmp(seed=x)", `bad seed "x"`},
		{"ecmp(seed=1) ecmp(seed=2)", "duplicate ecmp statement"},
	}
	for _, tc := range cases {
		_, err := ParseTopo(tc.in)
		if err == nil {
			t.Errorf("ParseTopo(%q): want error containing %q, got nil", tc.in, tc.wantErr)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ParseTopo(%q): error %q does not contain %q", tc.in, err, tc.wantErr)
		}
	}
}

// mustParseTopo is ParseTopo for the tests' statically-known specs.
func mustParseTopo(t *testing.T, input string) Spec {
	t.Helper()
	spec, err := ParseTopo(input)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}
