package netem

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Link carries the attributes of one direction of an edge.
type Link struct {
	Latency  time.Duration
	LossRate float64
	// MTU, when nonzero, drops datagrams whose wire size exceeds it at
	// this link's egress (traced as "drop-mtu", after the sender's
	// "send"). The fabric does not auto-fragment; senders must fragment
	// deliberately, as the evasion strategies do.
	MTU int
	// Rate, when nonzero, caps this direction at that many bits per
	// second: packets serialize through a finite FIFO of Queue packets
	// (DefaultQueueLimit when zero) with tail-drop, or RED when set.
	Rate  int64
	Queue int
	RED   bool
}

// Vertex declares one topology node.
type Vertex struct {
	// Label names the node in traces and diagrams. The endpoints are
	// always labelled client and server, the names the sequence
	// diagrams and Fig. 1 key on; their Label only names them in
	// routing errors.
	Label string
	// Router nodes decrement TTL, validate IP checksums, discard
	// optioned datagrams, and expire packets with ICMP Time-Exceeded.
	Router bool
}

// Edge declares one directed link between two nodes, by index.
type Edge struct {
	From, To int
	Link
}

// hop is one candidate next hop: the neighbour, the index of the
// directed link reaching it (which keys the link's shaper), and that
// link's attributes.
type hop struct {
	to, link int
	Link
}

// Topology is a routed network shape: labelled nodes, directed links,
// and every node's next hops toward either endpoint. Routing is
// hop-count shortest path with equal-cost multipath: where several next
// hops tie, a seeded per-flow hash picks one (see Fabric.route),
// modeling the GFW's load-balanced device clusters. NewTopology plans
// the routes once; a Topology is immutable afterwards, so one serves
// every Fabric built on it, from any number of goroutines.
type Topology struct {
	nodes  []Vertex
	client int
	server int
	// links holds every directed link as a hop from its tail, by link
	// index: a crossing event names its link, and the index keys a
	// Fabric's shapers.
	links []hop
	// next holds, by Direction and then node, the equal-cost next hops
	// toward that direction's endpoint in ascending neighbour order.
	next     [2][][]hop
	ecmpSeed uint64

	// labels holds each node's flight-recorder label in either
	// direction ("r →srv"), built by traceLabel on first use.
	labelsOnce sync.Once
	labels     [][2]string
}

// NewTopology plans the routing of nodes joined by edges: a
// breadth-first search from each endpoint over the reversed links
// yields hop-count distances, and a node's next hops toward an
// endpoint are its out-neighbours one hop closer to it. Parallel
// equal-cost branches become ECMP candidate sets, split per flow under
// ecmpSeed. Both endpoints must reach each other.
func NewTopology(nodes []Vertex, edges []Edge, client, server int, ecmpSeed uint64) (*Topology, error) {
	n := len(nodes)
	if client < 0 || client >= n || server < 0 || server >= n || client == server {
		return nil, fmt.Errorf("netem: endpoints %d and %d are not two of the %d nodes", client, server, n)
	}
	out := make([][]hop, n)
	radj := make([][]int, n)
	links := make([]hop, len(edges))
	for i, e := range edges {
		links[i] = hop{to: e.To, link: i, Link: e.Link}
		out[e.From] = append(out[e.From], links[i])
		radj[e.To] = append(radj[e.To], e.From)
	}
	for _, hs := range out {
		sort.Slice(hs, func(a, b int) bool { return hs[a].to < hs[b].to })
	}
	toServer, toClient := distances(radj, server), distances(radj, client)
	if toServer[client] < 0 {
		return nil, fmt.Errorf("netem: no route from client %q to server %q", nodes[client].Label, nodes[server].Label)
	}
	if toClient[server] < 0 {
		return nil, fmt.Errorf("netem: no route from server %q to client %q", nodes[server].Label, nodes[client].Label)
	}
	t := &Topology{
		nodes:    append([]Vertex(nil), nodes...),
		client:   client,
		server:   server,
		links:    links,
		ecmpSeed: ecmpSeed,
	}
	t.nodes[client].Label, t.nodes[server].Label = "client", "server"
	t.next[ToServer] = nextHops(out, toServer)
	t.next[ToClient] = nextHops(out, toClient)
	return t, nil
}

// traceLabel returns node idx's flight-recorder label toward dir. The
// table is built once, when an observed fabric first records on the
// topology, so a topology no fabric records on allocates none.
func (t *Topology) traceLabel(idx int, dir Direction) string {
	t.labelsOnce.Do(func() {
		t.labels = make([][2]string, len(t.nodes))
		for i, v := range t.nodes {
			for _, d := range []Direction{ToServer, ToClient} {
				t.labels[i][d] = v.Label + " " + d.String()
			}
		}
	})
	return t.labels[idx][dir]
}

// distances returns every node's hop count to dst, -1 where dst is
// unreachable; radj lists each node's in-neighbours.
func distances(radj [][]int, dst int) []int {
	dist := make([]int, len(radj))
	for i := range dist {
		dist[i] = -1
	}
	dist[dst] = 0
	queue := []int{dst}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range radj[v] {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// nextHops derives the equal-cost candidate sets from a distance map;
// out is sorted by neighbour, so every set is too.
func nextHops(out [][]hop, dist []int) [][]hop {
	next := make([][]hop, len(out))
	for u, hs := range out {
		if dist[u] <= 0 {
			continue // the destination itself, or unreachable
		}
		for _, h := range hs {
			if dist[h.to] == dist[u]-1 {
				next[u] = append(next[u], h)
			}
		}
	}
	return next
}

// NewChain builds a fabric over the linear topology the measurement
// rigs use: client — hops routers labelled "r" — server. Every link is
// symmetric: access joins the client to the first router, link joins
// every later pair. Router i is node i+1, so attach to it through
// Node(i+1).
func NewChain(sim *Simulator, hops int, access, link Link) *Fabric {
	nodes := make([]Vertex, hops+2)
	edges := make([]Edge, 0, 2*(hops+1))
	for i := 0; i <= hops; i++ {
		l := link
		if i == 0 {
			l = access
		} else {
			nodes[i] = Vertex{Label: "r", Router: true}
		}
		edges = append(edges, Edge{From: i, To: i + 1, Link: l}, Edge{From: i + 1, To: i, Link: l})
	}
	t, err := NewTopology(nodes, edges, 0, hops+1, 0)
	if err != nil {
		panic(err) // a chain always routes both ways
	}
	return NewFabric(sim, t)
}
