package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"time"

	"intango/internal/censor"
	"intango/internal/gfw"
	"intango/internal/middlebox"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/topo"
)

// This file derives each trial's declarative topology (internal/topo)
// from the (vantage point, server) pair and compiles it onto the netem
// fabric. The derived spec for a measured path is a symmetric linear
// chain. Runner.Topo overrides the derivation with an explicit spec —
// any graph — which is how the ECMP multi-device scenarios run through
// the standard campaign machinery.

// topoKey identifies a derived linear topology shape. Everything else
// about a trial (device behaviours, middlebox RNG, endpoints) binds at
// instantiation time, so one cached Program serves every trial with
// the same shape. The key holds the server's sampled loss rate, so
// every population has shapes of its own: the derived programs are
// cached per Runner (Runner.programs), which its population bounds.
type topoKey struct {
	hops, gfwHop int
	profile      middlebox.ProfileName
	mix          DeviceMix
	fw           bool
	loss         float64
	// shaped rates the client's access link as the goodput matrix's
	// constrained arm does (goodputProgram).
	shaped bool
}

// topoOverride caches parsed Runner.Topo specs by their text, which
// only configuration supplies.
var (
	topoMu       sync.RWMutex
	topoOverride = make(map[string]*topo.Program)
)

// derivedSpec builds the canonical linear spec for a shape key:
// client — r0..r(hops-1) — server, 1 ms symmetric links, access-link
// loss, client-side middlebox profile on the first hop, GFW tap (plus
// its in-path IP filter) at the tap hop, and optionally a server-side
// firewall two hops short of the server.
func derivedSpec(k topoKey) topo.Spec {
	var spec topo.Spec
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "c", Kind: topo.KindClient})
	for i := 0; i < k.hops; i++ {
		n := topo.NodeSpec{Name: fmt.Sprintf("r%d", i), Kind: topo.KindRouter, Label: "r"}
		if i == 0 {
			n.Attach = append(n.Attach, topo.Attachment{Ref: "mbox:" + string(k.profile)})
		}
		if i == k.gfwHop {
			devs := []string{"gfw-new"}
			switch k.mix {
			case OldOnly:
				devs = []string{"gfw-old"}
			case BothModels:
				devs = []string{"gfw-old", "gfw-new"}
			}
			for _, d := range devs {
				n.Attach = append(n.Attach,
					topo.Attachment{Tap: true, Ref: d},
					topo.Attachment{Ref: "ipf:" + d})
			}
		}
		if k.fw && i == k.hops-2 {
			n.Attach = append(n.Attach, topo.Attachment{Ref: "server-fw"})
		}
		spec.Nodes = append(spec.Nodes, n)
	}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "s", Kind: topo.KindServer})
	link := func(from, to string, loss float64) {
		spec.Links = append(spec.Links,
			topo.LinkSpec{From: from, To: to, Latency: time.Millisecond, Loss: loss},
			topo.LinkSpec{From: to, To: from, Latency: time.Millisecond, Loss: loss})
	}
	link("c", "r0", k.loss)
	if k.shaped {
		// The access link, both ways: the only links so far.
		for i := range spec.Links {
			spec.Links[i].RateBits, spec.Links[i].Queue = goodputRateBits, goodputQueuePkts
		}
	}
	for i := 0; i+1 < k.hops; i++ {
		link(fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", i+1), 0)
	}
	link(fmt.Sprintf("r%d", k.hops-1), "s", 0)
	return spec
}

// shapeKey derives the topology shape for a trial, with the tap hop
// clamped onto the (possibly route-shifted) path.
func shapeKey(vp VantagePoint, srv Server, hops int) topoKey {
	gfwHop := srv.GFWHop
	if gfwHop >= hops {
		gfwHop = hops - 1
	}
	if gfwHop < 0 {
		gfwHop = 0
	}
	return topoKey{
		hops: hops, gfwHop: gfwHop,
		profile: vp.Profile, mix: srv.Mix,
		fw:   srv.ServerSideFirewall && hops >= 3,
		loss: srv.LossRate,
	}
}

// program returns the derived linear program of shape key, cached on
// r. Programs, and the routing tables they hold, are immutable and
// shared read-only across trials and workers.
func (r *Runner) program(key topoKey) *topo.Program {
	r.progMu.RLock()
	prog := r.programs[key]
	r.progMu.RUnlock()
	if prog != nil {
		return prog
	}
	prog, err := topo.NewProgram(derivedSpec(key))
	if err != nil {
		panic(fmt.Sprintf("experiment: derived topology invalid: %v", err))
	}
	r.progMu.Lock()
	if r.programs == nil {
		r.programs = make(map[topoKey]*topo.Program)
	}
	r.programs[key] = prog
	r.progMu.Unlock()
	return prog
}

// topoOverride returns the parsed Runner.Topo override, nil when there
// is none and each trial derives its path.
func (r *Runner) topoOverride() *topo.Program {
	if r.Topo == "" {
		return nil
	}
	return overrideProgram(r.Topo)
}

// overrideProgram parses and caches an explicit Runner.Topo spec. An
// invalid override is a configuration error and panics with the parse
// or validation message.
func overrideProgram(text string) *topo.Program {
	topoMu.RLock()
	prog := topoOverride[text]
	topoMu.RUnlock()
	if prog != nil {
		return prog
	}
	spec, err := topo.ParseTopo(text)
	if err != nil {
		panic(fmt.Sprintf("experiment: Runner.Topo: %v", err))
	}
	prog, err = topo.NewProgram(spec)
	if err != nil {
		panic(fmt.Sprintf("experiment: Runner.Topo: %v", err))
	}
	topoMu.Lock()
	topoOverride[text] = prog
	topoMu.Unlock()
	return prog
}

// TopoSpec returns the canonical topology spec derived for a (vantage
// point, server) pair at its measured hop count — what `-what topo`
// prints. Route dynamics perturb the per-trial shape around this.
func (r *Runner) TopoSpec(vp VantagePoint, srv Server) topo.Spec {
	if prog := r.topoOverride(); prog != nil {
		return prog.Spec()
	}
	return r.program(shapeKey(vp, srv, srv.Hops)).Spec()
}

// GraphDemoTopo is the ECMP demonstration topology: two parallel GFW
// devices on equal-cost branches (the load-balanced device clusters of
// §2.2) and an asymmetric reverse route that bypasses both taps. The
// return links b1>a and b2>a exist so device-injected RSTs reach the
// client; hop-count routing never selects them for forward traffic.
const GraphDemoTopo = "node:c(client) " +
	"node:a(router) " +
	"node:b1(router,tap=gfw-new,proc=ipf:gfw-new) " +
	"node:b2(router,tap=gfw-new.2,proc=ipf:gfw-new.2) " +
	"node:x(router) node:rr(router) node:s(server) " +
	"link:c>a(lat=1ms,loss=0.006) link:a>c(lat=1ms,loss=0.006) " +
	"link:a>b1(lat=1ms) link:a>b2(lat=1ms) " +
	"link:b1>x(lat=1ms) link:b2>x(lat=1ms) link:x>s(lat=1ms) " +
	"link:s>rr(lat=1ms) link:rr>a(lat=1ms) " +
	"link:b1>a(lat=1ms) link:b2>a(lat=1ms) link:x>a(lat=1ms) " +
	"ecmp(seed=1)"

// WriteTopoSpecs writes the canonical derived topology spec for every
// (vantage point, server) pair of a campaign scale — the `-what topo`
// dump. Each line is a complete spec; feeding it back through
// Runner.Topo reproduces the pair's substrate exactly.
func WriteTopoSpecs(w io.Writer, r *Runner, sc Scale) {
	vps := VantagePoints()[:sc.VPs]
	servers := Servers(sc.Servers, r.Cal, r.Seed)
	fmt.Fprintf(w, "== derived topology specs (%d VPs × %d servers) ==\n", len(vps), len(servers))
	for _, vp := range vps {
		for _, srv := range servers {
			fmt.Fprintf(w, "%s ~ %s:\n  %s\n", vp.Name, srv.Name, r.TopoSpec(vp, srv).String())
		}
	}
}

// FormatTopoDemo compiles the ECMP demo topology and shows what a
// graph adds over a linear path: the canonical spec, the compiled
// fabric's nodes with their bound devices, and the seeded per-flow
// route selection splitting
// flows across the two parallel censor devices while the reverse route
// returns asymmetrically past both taps.
func FormatTopoDemo(seed int64) string {
	r := NewRunner(seed)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, seed)[0]
	fab := r.build(vp, srv, overrideProgram(GraphDemoTopo), r.Censor, 1, r.newArena()).net
	var b strings.Builder
	b.WriteString("== ECMP multi-device demo (graph fabric) ==\n")
	b.WriteString("spec:\n  " + overrideProgram(GraphDemoTopo).Spec().String() + "\n")
	b.WriteString("compiled:\n  " + fab.Describe() + "\n")
	b.WriteString("per-flow routes (hash-based ECMP, seed pinned in spec):\n")
	via := map[string]int{}
	const flows = 16
	for i := 0; i < flows; i++ {
		sport := uint16(32768 + i)
		pkt := packet.NewTCP(vp.Addr, sport, srv.Addr, 80, packet.FlagSYN, 1, 0, nil)
		fwd := strings.Join(fab.Route(netem.ToServer, pkt), ">")
		rev := strings.Join(fab.Route(netem.ToClient, pkt), ">")
		for _, branch := range []string{"b1", "b2"} {
			if strings.Contains(fwd, ">"+branch+">") {
				via[branch]++
			}
		}
		if i < 4 {
			fmt.Fprintf(&b, "  :%d  fwd %s   rev %s\n", sport, fwd, rev)
		}
	}
	fmt.Fprintf(&b, "branch split over %d flows: b1=%d b2=%d (reverse route bypasses both taps)\n",
		flows, via["b1"], via["b2"])
	return b.String()
}

// rigBinder binds a topology's attachments onto the nodes of one
// trial's fabric, drawing from the trial and pair RNGs in
// node-declaration order — the same draw sequence the hand-built rigs
// used. The reference vocabulary:
//
//	mbox:<profile>  client-side middlebox chain (Table 2 profile)
//	gfw-old...      legacy-model GFW device (tap); name = ref
//	gfw-new...      evolved-model GFW device (tap); name = ref
//	ipf:<name>      the in-path companion filter of the already-bound
//	                device (IP blocklist for the engine, flow blackhole
//	                for the inline blocker)
//	server-fw       server-side stateful firewall
//
// censor= attachments resolve through the internal/censor registry
// (heterogeneous zoos on fabric branches).
type rigBinder struct {
	r        *Runner
	vp       VantagePoint
	censor   string // the trial's censor reference; see Runner.Censor
	rg       *rig
	trialRng *rand.Rand
	pairRng  *netem.Source
}

// Bind implements topo.Binder.
func (b *rigBinder) Bind(node *netem.Node, a topo.Attachment) error {
	ref := a.Ref
	if a.Censor {
		// Instance names carry a per-rig ordinal so two attachments of
		// the same censor stay distinguishable in traces and stats.
		return b.attach(node, ref, fmt.Sprintf("censor%d:%s", len(b.rg.devices), ref), true)
	}
	switch {
	case strings.HasPrefix(ref, "mbox:"):
		// Always called, even for profiles with no middleboxes: the
		// chain constructor consumes trial RNG identically either way.
		chain := b.rg.chains.Get(true)
		place(node, a.Tap, chain.Reset(middlebox.ProfileName(ref[len("mbox:"):]), b.trialRng)...)
	case strings.HasPrefix(ref, "ipf:"):
		name := ref[len("ipf:"):]
		for _, dev := range b.rg.devices {
			if dev.Name() == name {
				place(node, a.Tap, dev.Filter())
				return nil
			}
		}
		if b.censor != "" {
			// A filter-only censor filled the slot with its chain, which
			// has no companion to bind.
			if comp, err := censor.Resolve(b.censor); err == nil && comp.Kind() == censor.KindChain {
				return nil
			}
		}
		return fmt.Errorf("ipf ref %q precedes its device", ref)
	case strings.HasPrefix(ref, "gfw-old"), strings.HasPrefix(ref, "gfw-new"):
		if b.censor != "" {
			// Censor override: the device slot is filled by the compiled
			// censor instead of the calibrated GFW population. Spec
			// parameters are authoritative — Cal probabilities do not
			// apply here. The slot's ipf: reference places the companion.
			return b.attach(node, b.censor, ref, false)
		}
		model := gfw.ModelEvolved2017
		if strings.HasPrefix(ref, "gfw-old") {
			model = gfw.ModelKhattak2013
		}
		cfg := gfwConfig(model, b.r.Cal)
		cfg.TorFiltering = b.vp.TorFiltered
		dev := b.rg.censors.Device()
		dev.Reset(ref, cfg, b.trialRng)
		dev.SetRSTResyncs(b.pairRng.Float64() < b.r.Cal.ResyncOnRSTProb)
		dev.SetSegmentLastWins(b.pairRng.Float64() < b.r.Cal.SegmentLastWinsProb)
		b.rg.devices = append(b.rg.devices, dev)
		place(node, a.Tap, dev)
	case ref == "server-fw":
		fw := b.rg.firewalls.Get(true)
		fw.Reset("server-side-fw", false)
		place(node, a.Tap, fw)
	default:
		return fmt.Errorf("unknown attachment ref %q", ref)
	}
	return nil
}

// attach puts one instance of the censor ref, named name, on node and
// records it among the rig's devices (a filter-only censor adds none).
func (b *rigBinder) attach(node *netem.Node, ref, name string, filter bool) error {
	dev, err := b.rg.censors.Attach(node, ref, name, filter, b.trialRng, b.pairRng)
	if dev != nil {
		b.rg.devices = append(b.rg.devices, dev)
	}
	return err
}

// place appends procs to node's taps or to its processors.
func place(node *netem.Node, tap bool, procs ...netem.Processor) {
	if tap {
		node.Taps = append(node.Taps, procs...)
	} else {
		node.Processors = append(node.Processors, procs...)
	}
}

// GraphZooTopo is the heterogeneous censor-zoo demonstration topology:
// a GFW engine and a Turkmenistan-style inline blocker on parallel
// equal-cost branches, each attached declaratively with censor=. Which
// censor a flow meets is decided by the seeded per-flow ECMP hash —
// the cross-censor analogue of GraphDemoTopo's device clusters.
const GraphZooTopo = "node:c(client) " +
	"node:a(router) " +
	"node:b1(router,censor=gfw2017) " +
	"node:b2(router,censor=turkmenistan) " +
	"node:x(router) node:rr(router) node:s(server) " +
	"link:c>a(lat=1ms) link:a>c(lat=1ms) " +
	"link:a>b1(lat=1ms) link:a>b2(lat=1ms) " +
	"link:b1>x(lat=1ms) link:b2>x(lat=1ms) link:x>s(lat=1ms) " +
	"link:s>rr(lat=1ms) link:rr>a(lat=1ms) " +
	"link:b1>a(lat=1ms) link:b2>a(lat=1ms) link:x>a(lat=1ms) " +
	"ecmp(seed=7)"
