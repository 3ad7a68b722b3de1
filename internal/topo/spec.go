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
		args = append(args, "lat="+l.Latency.String())
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

// MustParseTopo is ParseTopo for statically-known specs; it panics on
// error.
func MustParseTopo(input string) Spec {
	spec, err := ParseTopo(input)
	if err != nil {
		panic(err)
	}
	return spec
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
	p := &topoParser{s: input}
	var spec Spec
	seenEcmp := false
	p.space()
	if p.eof() {
		return Spec{}, fmt.Errorf("topo: empty input")
	}
	for {
		p.space()
		if p.eof() {
			return spec, nil
		}
		switch {
		case strings.HasPrefix(p.rest(), "node:"):
			p.i += len("node:")
			n, err := p.node()
			if err != nil {
				return Spec{}, err
			}
			spec.Nodes = append(spec.Nodes, n)
		case strings.HasPrefix(p.rest(), "link:"):
			p.i += len("link:")
			l, err := p.link()
			if err != nil {
				return Spec{}, err
			}
			spec.Links = append(spec.Links, l)
		case strings.HasPrefix(p.rest(), "ecmp"):
			p.i += len("ecmp")
			seed, err := p.ecmp()
			if err != nil {
				return Spec{}, err
			}
			if seenEcmp {
				return Spec{}, fmt.Errorf("topo: duplicate ecmp statement")
			}
			seenEcmp = true
			spec.ECMPSeed = seed
		default:
			return Spec{}, fmt.Errorf("topo: expected node:, link: or ecmp, got %q", p.rest())
		}
	}
}

type topoParser struct {
	s string
	i int
}

func (p *topoParser) eof() bool    { return p.i >= len(p.s) }
func (p *topoParser) rest() string { return p.s[p.i:] }

func (p *topoParser) space() {
	for !p.eof() && (p.s[p.i] == ' ' || p.s[p.i] == '\t' || p.s[p.i] == '\n' || p.s[p.i] == '\r') {
		p.i++
	}
}

func nameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
		c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.' || c == '+'
}

// refByte additionally allows ':' so bindings can namespace their
// references ("ipf:gfw-new").
func refByte(c byte) bool { return nameByte(c) || c == ':' }

// name consumes a run of name bytes (possibly empty).
func (p *topoParser) name() string {
	start := p.i
	for !p.eof() && nameByte(p.s[p.i]) {
		p.i++
	}
	return p.s[start:p.i]
}

// ref consumes a run of reference bytes (possibly empty).
func (p *topoParser) ref() string {
	start := p.i
	for !p.eof() && refByte(p.s[p.i]) {
		p.i++
	}
	return p.s[start:p.i]
}

func (p *topoParser) consume(c byte) bool {
	if !p.eof() && p.s[p.i] == c {
		p.i++
		return true
	}
	return false
}

// arg is one parsed attribute: bare ("router") or key=value.
type arg struct {
	key string // "" for a bare token
	val string
}

// label names the attribute in errors: the key for key=value, the
// token itself when bare.
func (a arg) label() string {
	if a.key != "" {
		return a.key
	}
	return a.val
}

// args parses an optional parenthesised attribute list.
func (p *topoParser) args(owner string) ([]arg, error) {
	if !p.consume('(') {
		return nil, nil
	}
	var out []arg
	for {
		p.space()
		if p.consume(')') {
			return out, nil
		}
		tok := p.name()
		if tok == "" {
			return nil, fmt.Errorf("topo: %s: expected attribute, got %q", owner, p.rest())
		}
		a := arg{val: tok}
		if p.consume('=') {
			a.key = tok
			a.val = p.ref()
			if a.val == "" {
				return nil, fmt.Errorf("topo: %s: missing value for %q", owner, a.key)
			}
		}
		out = append(out, a)
		p.space()
		if p.consume(',') {
			continue
		}
		if p.consume(')') {
			return out, nil
		}
		return nil, fmt.Errorf("topo: %s: expected ',' or ')', got %q", owner, p.rest())
	}
}

func (p *topoParser) node() (NodeSpec, error) {
	var n NodeSpec
	n.Name = p.name()
	if n.Name == "" {
		return n, fmt.Errorf("topo: node: missing name, got %q", p.rest())
	}
	args, err := p.args("node:" + n.Name)
	if err != nil {
		return n, err
	}
	for _, a := range args {
		switch {
		case a.key == "" && a.val == "client":
			if n.Kind != KindPlain {
				return n, fmt.Errorf("topo: node:%s: conflicting kind %q", n.Name, a.val)
			}
			n.Kind = KindClient
		case a.key == "" && a.val == "server":
			if n.Kind != KindPlain {
				return n, fmt.Errorf("topo: node:%s: conflicting kind %q", n.Name, a.val)
			}
			n.Kind = KindServer
		case a.key == "" && a.val == "router":
			if n.Kind != KindPlain {
				return n, fmt.Errorf("topo: node:%s: conflicting kind %q", n.Name, a.val)
			}
			n.Kind = KindRouter
		case a.key == "label":
			n.Label = a.val
		case a.key == "tap":
			n.Attach = append(n.Attach, Attachment{Tap: true, Ref: a.val})
		case a.key == "proc":
			n.Attach = append(n.Attach, Attachment{Ref: a.val})
		case a.key == "censor":
			n.Attach = append(n.Attach, Attachment{Censor: true, Ref: a.val})
		default:
			return n, fmt.Errorf("topo: node:%s: unknown attribute %q", n.Name, a.label())
		}
	}
	return n, nil
}

func (p *topoParser) link() (LinkSpec, error) {
	var l LinkSpec
	l.From = p.name()
	if l.From == "" {
		return l, fmt.Errorf("topo: link: missing source node, got %q", p.rest())
	}
	if !p.consume('>') {
		return l, fmt.Errorf("topo: link:%s: expected '>', got %q", l.From, p.rest())
	}
	l.To = p.name()
	if l.To == "" {
		return l, fmt.Errorf("topo: link:%s>: missing target node, got %q", l.From, p.rest())
	}
	owner := "link:" + l.From + ">" + l.To
	args, err := p.args(owner)
	if err != nil {
		return l, err
	}
	for _, a := range args {
		switch a.key {
		case "lat":
			d, err := time.ParseDuration(a.val)
			if err != nil || d < 0 {
				return l, fmt.Errorf("topo: %s: bad lat %q", owner, a.val)
			}
			l.Latency = d
		case "loss":
			f, err := strconv.ParseFloat(a.val, 64)
			if err != nil || f < 0 || f >= 1 {
				return l, fmt.Errorf("topo: %s: bad loss %q (want [0,1))", owner, a.val)
			}
			l.Loss = f
		case "mtu":
			m, err := strconv.Atoi(a.val)
			if err != nil || m <= 0 {
				return l, fmt.Errorf("topo: %s: bad mtu %q", owner, a.val)
			}
			l.MTU = m
		case "bw":
			bits, err := parseRate(a.val)
			if err != nil {
				return l, fmt.Errorf("topo: %s: bad bw %q", owner, a.val)
			}
			l.RateBits = bits
		case "queue":
			q, err := strconv.Atoi(a.val)
			if err != nil || q <= 0 {
				return l, fmt.Errorf("topo: %s: bad queue %q", owner, a.val)
			}
			l.Queue = q
		case "":
			if a.val == "red" {
				l.RED = true
				continue
			}
			return l, fmt.Errorf("topo: %s: unknown attribute %q", owner, a.label())
		default:
			return l, fmt.Errorf("topo: %s: unknown attribute %q", owner, a.label())
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

func (p *topoParser) ecmp() (uint64, error) {
	args, err := p.args("ecmp")
	if err != nil {
		return 0, err
	}
	if len(args) != 1 || args[0].key != "seed" {
		return 0, fmt.Errorf("topo: ecmp: want ecmp(seed=N)")
	}
	seed, err := strconv.ParseUint(args[0].val, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("topo: ecmp: bad seed %q", args[0].val)
	}
	if seed == 0 {
		return 0, fmt.Errorf("topo: ecmp: seed must be nonzero (zero is the unseeded default)")
	}
	return seed, nil
}
