// Package topo is the declarative topology layer: a Spec describes a
// trial's network — nodes (endpoints, routers, taps, middleboxes),
// directed links with per-direction latency/loss/MTU and optional
// bandwidth shaping (token bucket + finite queue), and seeded
// per-flow ECMP route selection — with a canonical text encoding that
// round-trips through ParseTopo, exactly as internal/core's strategy
// Spec does for evasion strategies. Compilation onto the netem
// substrate lives in compile.go: NewProgram plans a spec's routing once
// into a shared netem.Topology, and Instantiate binds one trial's
// netem.Fabric over it — for a linear chain and a graph alike.
package topo

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"intango/internal/netem"
	"intango/internal/spectext"
)

// Kind classifies a node.
type Kind int

const (
	// KindPlain forwards without touching TTL (a switch, a wiretap
	// position that is not a router).
	KindPlain Kind = iota
	// KindClient and KindServer are the endpoints; a spec has exactly
	// one of each, and they carry no taps or processors.
	KindClient
	KindServer
	// KindRouter decrements TTL, validates IP checksums, discards
	// optioned datagrams, and emits ICMP Time-Exceeded.
	KindRouter
)

// String names the kind as it appears in spec text ("" for plain,
// which is the unmarked default).
func (k Kind) String() string {
	switch k {
	case KindClient:
		return "client"
	case KindServer:
		return "server"
	case KindRouter:
		return "router"
	default:
		return ""
	}
}

// Attachment is one symbolic tap/processor reference on a node. The
// actual netem.Processor chains are bound at compile time (a spec is
// printable text; devices are live objects with config and RNG state).
type Attachment struct {
	// Tap: attach as an on-path tap (the GFW wiretap position) rather
	// than an in-path processor.
	Tap bool
	// Censor: Ref is a censor reference (registry name or spec text)
	// compiled by internal/censor; the binder builds the instance's tap
	// and its in-path companion filter at this node.
	Censor bool
	// Ref is the symbolic name a Binder resolves, e.g. "gfw-new",
	// "client-mbox", "ipf:gfw-new" — or, with Censor, "gfw2017".
	Ref string
}

// NodeSpec declares one node.
type NodeSpec struct {
	Name string
	Kind Kind
	// Label, when set, overrides Name in traces and diagrams (the
	// measurement rigs label every router "r", as the paper's diagrams
	// do, while spec names must be unique).
	Label string
	// Attach lists the node's taps and processors in attachment order.
	Attach []Attachment
}

// String renders the node statement in canonical form.
func (n NodeSpec) String() string {
	var args []string
	if k := n.Kind.String(); k != "" {
		args = append(args, k)
	}
	if n.Label != "" {
		args = append(args, "label="+n.Label)
	}
	for _, a := range n.Attach {
		switch {
		case a.Censor:
			args = append(args, "censor="+a.Ref)
		case a.Tap:
			args = append(args, "tap="+a.Ref)
		default:
			args = append(args, "proc="+a.Ref)
		}
	}
	s := "node:" + n.Name
	if len(args) > 0 {
		s += "(" + strings.Join(args, ",") + ")"
	}
	return s
}

// LinkSpec declares one directed link. Forward and reverse directions
// of an edge are separate statements, so asymmetric routes and
// per-direction attributes fall out naturally.
type LinkSpec struct {
	From, To string
	Latency  time.Duration
	Loss     float64
	// MTU, when nonzero, drops datagrams whose wire size exceeds it at
	// this link's egress.
	MTU int
	// RateBits, when nonzero, caps the link at that many bits per
	// second ("bw=1mbit"): packets serialize through a finite FIFO.
	RateBits int64
	// Queue is the FIFO depth in packets ("queue=16");
	// netem.DefaultQueueLimit applies when zero. Only valid with a rate.
	Queue int
	// RED switches the queue from tail-drop to random early detection
	// (bare "red" attribute). Only valid with a rate.
	RED bool
}

// String renders the link statement in canonical form.
func (l LinkSpec) String() string {
	var args []string
	if l.Latency != 0 {
		args = append(args, "lat="+spectext.Duration(l.Latency))
	}
	if l.Loss != 0 {
		args = append(args, "loss="+strconv.FormatFloat(l.Loss, 'g', -1, 64))
	}
	if l.MTU != 0 {
		args = append(args, "mtu="+strconv.Itoa(l.MTU))
	}
	if l.RateBits != 0 {
		args = append(args, "bw="+netem.FormatRate(l.RateBits))
	}
	if l.Queue != 0 {
		args = append(args, "queue="+strconv.Itoa(l.Queue))
	}
	if l.RED {
		args = append(args, "red")
	}
	s := "link:" + l.From + ">" + l.To
	if len(args) > 0 {
		s += "(" + strings.Join(args, ",") + ")"
	}
	return s
}

// Spec is a complete declarative topology.
type Spec struct {
	Nodes []NodeSpec
	Links []LinkSpec
	// ECMPSeed seeds the per-flow hash that picks among equal-cost
	// parallel routes. Two rigs compiled from the same spec route every
	// flow identically.
	ECMPSeed uint64
}

// String renders the canonical single-line encoding: nodes in
// declaration order, then links in declaration order, then the ECMP
// seed when nonzero. ParseTopo inverts it exactly:
// ParseTopo(s.String()).String() == s.String().
func (s Spec) String() string {
	parts := make([]string, 0, len(s.Nodes)+len(s.Links)+1)
	for _, n := range s.Nodes {
		parts = append(parts, n.String())
	}
	for _, l := range s.Links {
		parts = append(parts, l.String())
	}
	if s.ECMPSeed != 0 {
		parts = append(parts, "ecmp(seed="+strconv.FormatUint(s.ECMPSeed, 10)+")")
	}
	return strings.Join(parts, " ")
}

// ParseTopo parses the canonical text encoding:
//
//	topo  = stmt {" " stmt}
//	stmt  = node | link | ecmp
//	node  = "node:" name ["(" nattr {"," nattr} ")"]
//	nattr = "client" | "server" | "router" | "label=" name |
//	        "tap=" ref | "proc=" ref | "censor=" ref
//	link  = "link:" name ">" name ["(" lattr {"," lattr} ")"]
//	lattr = "lat=" duration | "loss=" float | "mtu=" int |
//	        "bw=" rate | "queue=" int | "red"
//	rate  = int ("bit" | "kbit" | "mbit" | "gbit")
//	ecmp  = "ecmp(seed=" uint ")"
//
// Whitespace (including newlines) between statements is forgiving on
// input; String always emits single spaces. Statements may interleave;
// String emits nodes, then links, then ecmp. Semantic checks (unique
// names, link endpoints, reachability) happen in NewProgram, not here
// — except a few that would make the encoding ambiguous.
func ParseTopo(input string) (Spec, error) {
	sc := spectext.NewScanner("topo", input)
	var spec Spec
	seenEcmp := false
	sc.Space()
	if sc.EOF() {
		return Spec{}, sc.Errorf("empty input")
	}
	for {
		sc.Space()
		if sc.EOF() {
			return spec, nil
		}
		switch {
		case sc.Prefix("node:"):
			n, err := parseNode(sc)
			if err != nil {
				return Spec{}, err
			}
			spec.Nodes = append(spec.Nodes, n)
		case sc.Prefix("link:"):
			l, err := parseLink(sc)
			if err != nil {
				return Spec{}, err
			}
			spec.Links = append(spec.Links, l)
		case sc.Prefix("ecmp"):
			seed, err := parseECMP(sc)
			if err != nil {
				return Spec{}, err
			}
			if seenEcmp {
				return Spec{}, sc.Errorf("duplicate ecmp statement")
			}
			seenEcmp = true
			spec.ECMPSeed = seed
		default:
			return Spec{}, sc.Errorf("expected node:, link: or ecmp, got %q", sc.Rest())
		}
	}
}

func parseNode(sc *spectext.Scanner) (NodeSpec, error) {
	var n NodeSpec
	n.Name = sc.Run(spectext.Word)
	if n.Name == "" {
		return n, sc.Errorf("node: missing name, got %q", sc.Rest())
	}
	args, err := sc.Args("node:"+n.Name, spectext.Ref)
	if err != nil {
		return n, err
	}
	for _, a := range args {
		switch {
		case a.Key == "" && a.Val == "client":
			if n.Kind != KindPlain {
				return n, sc.Errorf("node:%s: conflicting kind %q", n.Name, a.Val)
			}
			n.Kind = KindClient
		case a.Key == "" && a.Val == "server":
			if n.Kind != KindPlain {
				return n, sc.Errorf("node:%s: conflicting kind %q", n.Name, a.Val)
			}
			n.Kind = KindServer
		case a.Key == "" && a.Val == "router":
			if n.Kind != KindPlain {
				return n, sc.Errorf("node:%s: conflicting kind %q", n.Name, a.Val)
			}
			n.Kind = KindRouter
		case a.Key == "label":
			n.Label = a.Val
		case a.Key == "tap":
			n.Attach = append(n.Attach, Attachment{Tap: true, Ref: a.Val})
		case a.Key == "proc":
			n.Attach = append(n.Attach, Attachment{Ref: a.Val})
		case a.Key == "censor":
			n.Attach = append(n.Attach, Attachment{Censor: true, Ref: a.Val})
		default:
			return n, sc.Errorf("node:%s: unknown attribute %q", n.Name, a.Label())
		}
	}
	return n, nil
}

func parseLink(sc *spectext.Scanner) (LinkSpec, error) {
	var l LinkSpec
	l.From = sc.Run(spectext.Word)
	if l.From == "" {
		return l, sc.Errorf("link: missing source node, got %q", sc.Rest())
	}
	if !sc.Consume('>') {
		return l, sc.Errorf("link:%s: expected '>', got %q", l.From, sc.Rest())
	}
	l.To = sc.Run(spectext.Word)
	if l.To == "" {
		return l, sc.Errorf("link:%s>: missing target node, got %q", l.From, sc.Rest())
	}
	owner := "link:" + l.From + ">" + l.To
	args, err := sc.Args(owner, spectext.Ref)
	if err != nil {
		return l, err
	}
	for _, a := range args {
		switch a.Key {
		case "lat":
			d, err := time.ParseDuration(a.Val)
			if err != nil || d < 0 {
				return l, sc.Errorf("%s: bad lat %q", owner, a.Val)
			}
			l.Latency = d
		case "loss":
			f, err := strconv.ParseFloat(a.Val, 64)
			if err != nil || f < 0 || f >= 1 {
				return l, sc.Errorf("%s: bad loss %q (want [0,1))", owner, a.Val)
			}
			l.Loss = f
		case "mtu":
			m, err := strconv.Atoi(a.Val)
			if err != nil || m <= 0 {
				return l, sc.Errorf("%s: bad mtu %q", owner, a.Val)
			}
			l.MTU = m
		case "bw":
			bits, err := parseRate(a.Val)
			if err != nil {
				return l, sc.Errorf("%s: bad bw %q", owner, a.Val)
			}
			l.RateBits = bits
		case "queue":
			q, err := strconv.Atoi(a.Val)
			if err != nil || q <= 0 {
				return l, sc.Errorf("%s: bad queue %q", owner, a.Val)
			}
			l.Queue = q
		case "":
			if a.Val == "red" {
				l.RED = true
				continue
			}
			return l, sc.Errorf("%s: unknown attribute %q", owner, a.Label())
		default:
			return l, sc.Errorf("%s: unknown attribute %q", owner, a.Label())
		}
	}
	return l, nil
}

// parseRate parses a link bit rate: an integer with a bit/kbit/mbit/
// gbit suffix, matching tc's spelling ("1mbit", "500kbit").
func parseRate(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "gbit"):
		mult, s = 1_000_000_000, strings.TrimSuffix(s, "gbit")
	case strings.HasSuffix(s, "mbit"):
		mult, s = 1_000_000, strings.TrimSuffix(s, "mbit")
	case strings.HasSuffix(s, "kbit"):
		mult, s = 1_000, strings.TrimSuffix(s, "kbit")
	case strings.HasSuffix(s, "bit"):
		s = strings.TrimSuffix(s, "bit")
	default:
		return 0, fmt.Errorf("missing bit/kbit/mbit/gbit suffix")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad rate magnitude %q", s)
	}
	return n * mult, nil
}

func parseECMP(sc *spectext.Scanner) (uint64, error) {
	args, err := sc.Args("ecmp", spectext.Ref)
	if err != nil {
		return 0, err
	}
	if len(args) != 1 || args[0].Key != "seed" {
		return 0, sc.Errorf("ecmp: want ecmp(seed=N)")
	}
	seed, err := strconv.ParseUint(args[0].Val, 10, 64)
	if err != nil {
		return 0, sc.Errorf("ecmp: bad seed %q", args[0].Val)
	}
	if seed == 0 {
		return 0, sc.Errorf("ecmp: seed must be nonzero (zero is the unseeded default)")
	}
	return seed, nil
}
