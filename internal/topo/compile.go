package topo

import (
	"fmt"

	"intango/internal/netem"
	"intango/internal/packet"
)

// Binder binds a spec's symbolic attachments onto the nodes of one
// trial's fabric. Bind is called once per attachment, nodes in
// declaration order and attachments in declaration order — so a binder
// that constructs stateful devices (whose constructors draw from a
// trial PRNG) sees a deterministic call sequence. It appends what a
// tap attachment names to node.Taps and what a processor attachment
// names to node.Processors; a censor attachment puts the censor's tap
// and its in-path companion on the node.
type Binder interface {
	Bind(node *netem.Node, a Attachment) error
}

// Options carries the runtime pieces a compiled topology binds to.
type Options struct {
	Sim *netem.Simulator
	// Pool, when set, recycles packets at end-of-life points.
	Pool *packet.Pool
}

// edge identifies a directed link by node index.
type edge struct{ from, to int }

// Program is a validated topology with its routing planned: NewProgram
// validates the spec and computes every node's next hops once, into a
// netem.Topology that Instantiate shares read-only with every trial's
// fabric. Rigs cache Programs per topology shape and stamp out one
// fabric per trial, which allocates only the trial's own state.
type Program struct {
	spec Spec
	topo *netem.Topology
}

// NewProgram validates spec and plans its routing.
func NewProgram(spec Spec) (*Program, error) {
	index := make(map[string]int, len(spec.Nodes))
	nodes := make([]netem.Vertex, len(spec.Nodes))
	client, server := -1, -1
	for i, n := range spec.Nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("topo: node %d: empty name", i)
		}
		if _, dup := index[n.Name]; dup {
			return nil, fmt.Errorf("topo: duplicate node %q", n.Name)
		}
		index[n.Name] = i
		switch n.Kind {
		case KindClient:
			if client >= 0 {
				return nil, fmt.Errorf("topo: multiple client nodes (%q and %q)", spec.Nodes[client].Name, n.Name)
			}
			client = i
		case KindServer:
			if server >= 0 {
				return nil, fmt.Errorf("topo: multiple server nodes (%q and %q)", spec.Nodes[server].Name, n.Name)
			}
			server = i
		}
		if (n.Kind == KindClient || n.Kind == KindServer) && len(n.Attach) > 0 {
			return nil, fmt.Errorf("topo: node %q: endpoints cannot carry taps or processors", n.Name)
		}
		nodes[i] = netem.Vertex{Label: display(n), Router: n.Kind == KindRouter}
	}
	if client < 0 {
		return nil, fmt.Errorf("topo: no client node")
	}
	if server < 0 {
		return nil, fmt.Errorf("topo: no server node")
	}
	seen := make(map[edge]bool, len(spec.Links))
	edges := make([]netem.Edge, 0, len(spec.Links))
	for _, l := range spec.Links {
		from, ok := index[l.From]
		if !ok {
			return nil, fmt.Errorf("topo: link %s>%s: unknown node %q", l.From, l.To, l.From)
		}
		to, ok := index[l.To]
		if !ok {
			return nil, fmt.Errorf("topo: link %s>%s: unknown node %q", l.From, l.To, l.To)
		}
		if from == to {
			return nil, fmt.Errorf("topo: link %s>%s: self-link", l.From, l.To)
		}
		if seen[edge{from, to}] {
			return nil, fmt.Errorf("topo: duplicate link %s>%s", l.From, l.To)
		}
		seen[edge{from, to}] = true
		if l.Latency < 0 {
			return nil, fmt.Errorf("topo: link %s>%s: negative latency", l.From, l.To)
		}
		if l.Loss < 0 || l.Loss >= 1 {
			return nil, fmt.Errorf("topo: link %s>%s: loss %g outside [0,1)", l.From, l.To, l.Loss)
		}
		if l.MTU < 0 {
			return nil, fmt.Errorf("topo: link %s>%s: negative mtu", l.From, l.To)
		}
		if l.RateBits < 0 {
			return nil, fmt.Errorf("topo: link %s>%s: negative bw", l.From, l.To)
		}
		if l.Queue < 0 {
			return nil, fmt.Errorf("topo: link %s>%s: negative queue", l.From, l.To)
		}
		if l.RateBits == 0 && (l.Queue != 0 || l.RED) {
			return nil, fmt.Errorf("topo: link %s>%s: queue/red require bw", l.From, l.To)
		}
		edges = append(edges, netem.Edge{From: from, To: to, Link: netem.Link{
			Latency: l.Latency, LossRate: l.Loss, MTU: l.MTU,
			Rate: l.RateBits, Queue: l.Queue, RED: l.RED,
		}})
	}
	// Routing rejects endpoints that cannot reach each other.
	t, err := netem.NewTopology(nodes, edges, client, server, spec.ECMPSeed)
	if err != nil {
		return nil, err
	}
	return &Program{spec: spec, topo: t}, nil
}

// Spec returns the program's spec (shared, not copied).
func (p *Program) Spec() Spec { return p.spec }

// display is a node's trace label: Label when set, else Name. netem
// labels the endpoints client and server whatever their names.
func display(n NodeSpec) string {
	if n.Label != "" {
		return n.Label
	}
	return n.Name
}

// Instantiate builds one trial's fabric over the program's shared
// routing in f, which it resets (netem.Fabric.Reset): a new Fabric, or
// the last trial's, whose storage the new one reuses. Binder calls
// happen nodes in declaration order, attachments in declaration order.
func (p *Program) Instantiate(f *netem.Fabric, b Binder, opts Options) error {
	f.Reset(opts.Sim, p.topo)
	f.Pool = opts.Pool
	for i, n := range p.spec.Nodes {
		for _, a := range n.Attach {
			if b == nil {
				return fmt.Errorf("topo: node %q: no binder for ref %q", n.Name, a.Ref)
			}
			if err := b.Bind(f.Node(i), a); err != nil {
				return fmt.Errorf("topo: node %q: %w", n.Name, err)
			}
		}
	}
	return nil
}
