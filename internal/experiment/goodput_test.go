package experiment

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"intango/internal/appsim"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/topo"
)

// TestCongestionDisabledZeroAlloc holds the unconstrained trial to the
// hot-path budget: the congestion machinery grown for rated links —
// per-connection cwnd/ssthresh tracking, RTT-sampled retransmission
// timers, the persist timer, and the per-link shaper hook — must cost
// a campaign over unshaped links nothing. Shapers are built only on
// rated links.
func TestCongestionDisabledZeroAlloc(t *testing.T) {
	requireTrialAllocBudget(t, "unconstrained trial with congestion machinery present")
}

// TestGoodputReorderCostlier is the congestion demo's acceptance
// property: on the bw=1mbit,queue=16 access link every
// duplicate/reorder-heavy strategy must deliver measurably lower
// goodput than every insertion-only strategy — the cost the paper's
// success rates never surfaced.
func TestGoodputReorderCostlier(t *testing.T) {
	if testing.Short() {
		t.Skip("full goodput campaign")
	}
	rows := RunGoodput(NewRunner(42), QuickScale())
	var minInject, maxReorder int64
	minInject = 1 << 62
	for _, row := range rows {
		if row.ConstrainedBps <= 0 {
			t.Errorf("%s: no goodput on the constrained link", row.Strategy)
		}
		switch row.Class {
		case "reorder":
			if row.ConstrainedBps > maxReorder {
				maxReorder = row.ConstrainedBps
			}
		case "inject":
			if row.ConstrainedBps < minInject {
				minInject = row.ConstrainedBps
			}
		}
	}
	// "Measurably lower": the best reorder strategy still loses at
	// least a third of the goodput the worst inject strategy keeps.
	if maxReorder*3 > minInject*2 {
		t.Errorf("reorder strategies not measurably costlier: best reorder %d bps vs worst inject %d bps",
			maxReorder, minInject)
	}
}

// TestGoodputKeepsRunnerTopo: RunGoodput chooses each link arm's
// topology itself, so a caller's Runner.Topo neither changes its rows
// nor is cleared by the call.
func TestGoodputKeepsRunnerTopo(t *testing.T) {
	sc := Scale{Servers: 1, Trials: 1}
	want := RunGoodput(NewRunner(42), sc)
	r := NewRunner(42)
	r.Topo = GraphDemoTopo
	if got := RunGoodput(r, sc); !reflect.DeepEqual(got, want) {
		t.Errorf("rows with Runner.Topo set differ:\ngot:  %+v\nwant: %+v", got, want)
	}
	if r.Topo != GraphDemoTopo {
		t.Errorf("RunGoodput left Runner.Topo = %q, want the caller's topology", r.Topo)
	}
}

// TestGoodputIPFragReleasesItsPackets runs ooo-ipfrag uploads, whose
// fragments, decoys, rebuilt datagrams and replaced client segments
// all come from the runner's pool, and requires the pool's puts to
// account for its gets: a packet still owed to the pool must be one
// still queued, so at most one per event left pending when the trial
// stops. On the shaped link the QCloud middlebox rebuilds each
// segment; on the graph demo, which has no middlebox, the GFW devices
// and the server's stack do. A missed release fails here instead of
// quietly costing an allocation per segment.
func TestGoodputIPFragReleasesItsPackets(t *testing.T) {
	vp := VantagePoints()[6]
	for _, tc := range []struct {
		name    string
		topoFor func(*Runner, VantagePoint, Server) *topo.Program
	}{
		{"middlebox", (*Runner).goodputProgram},
		{"gfw-and-server", graphDemo},
	} {
		r := NewRunner(42)
		srv := controlledServers(r, 1)[0]
		a := r.newArena()
		bps, _, out := r.runGoodputTrial(vp, srv, tc.topoFor(r, vp, srv), goodputFactory("ooo-ipfrag"), goodputUpload(srv), 0, nil, a)
		if out != Success || bps <= 0 {
			t.Fatalf("%s: upload %v at %d bps, want a completed upload", tc.name, out, bps)
		}
		st := r.PoolStats()
		queued := uint64(a.sim.Pending())
		// Some 45 segments, each cut into five pooled packets.
		if st.Gets < 200 {
			t.Fatalf("%s: pool gets = %d: the upload's pieces did not come from the pool", tc.name, st.Gets)
		}
		if st.Puts > st.Gets || st.Gets-st.Puts > queued {
			t.Errorf("%s: pool gets %d, puts %d: %d packets unreleased, %d events still queued",
				tc.name, st.Gets, st.Puts, st.Gets-st.Puts, queued)
		}
	}
}

// ipfragDeliveries runs one ooo-ipfrag upload over the topology
// topoFor returns on a new arena, with a tracer attached when traced,
// and returns every datagram either endpoint received: its virtual
// time, the end, and its wire bytes, read as it arrives.
func ipfragDeliveries(t *testing.T, topoFor func(*Runner, VantagePoint, Server) *topo.Program, traced bool) []string {
	r := NewRunner(42)
	vp := VantagePoints()[6]
	srv := controlledServers(r, 1)[0]
	rg := r.build(vp, srv, topoFor(r, vp, srv), r.Censor, r.pairSeed(vp, srv), r.newArena())
	rg.arm(&srv, goodputFactory("ooo-ipfrag"))
	var got []string
	record := func(end string, next netem.Endpoint) netem.Endpoint {
		return netem.EndpointFunc(func(pkt *packet.Packet) {
			got = append(got, fmt.Sprintf("%v %s %x", rg.sim.Now(), end, pkt.Serialize(packet.SerializeOptions{})))
			next.Deliver(pkt)
		})
	}
	rg.net.Client, rg.net.Server = record("client", rg.net.Client), record("server", rg.net.Server)
	if traced {
		rg.net.Trace = func(netem.TraceEvent) {}
	}
	conn := rg.cli.Connect(srv.Addr, 80)
	rg.sim.RunFor(connectWindow)
	conn.Write(goodputUpload(srv))
	rg.sim.RunFor(30 * time.Second)
	if !appsim.HTTPResponseComplete(conn.Received()) {
		t.Fatalf("traced=%v: the upload got no response", traced)
	}
	return got
}

// TestGoodputIPFragTracedMatchesUntraced: with a tracer attached
// nothing is recycled, so a packet released while still in use would
// make the untraced upload deliver other bytes, or at other times,
// than the traced one. It runs on both topologies of
// TestGoodputIPFragReleasesItsPackets.
func TestGoodputIPFragTracedMatchesUntraced(t *testing.T) {
	for _, topoFor := range []func(*Runner, VantagePoint, Server) *topo.Program{
		(*Runner).goodputProgram,
		graphDemo,
	} {
		plain, traced := ipfragDeliveries(t, topoFor, false), ipfragDeliveries(t, topoFor, true)
		if len(plain) != len(traced) {
			t.Fatalf("untraced upload delivered %d datagrams, traced %d", len(plain), len(traced))
		}
		for i := range plain {
			if plain[i] != traced[i] {
				t.Fatalf("delivery %d:\nuntraced %s\ntraced   %s", i, plain[i], traced[i])
			}
		}
	}
}

// graphDemo returns the ECMP demo graph's program, whatever the pair.
func graphDemo(*Runner, VantagePoint, Server) *topo.Program {
	return overrideProgram(GraphDemoTopo)
}
