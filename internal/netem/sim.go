// Package netem is a deterministic discrete-event network simulator. It
// models the measurement environment of the paper: a client and a server
// joined by router hops — a chain (NewChain) or any graph of directed
// links with per-flow ECMP (NewTopology) — with middleboxes and the
// GFW's on-path wiretap attached at arbitrary nodes, per-link latency,
// loss, MTU and bandwidth, TTL handling with ICMP Time-Exceeded
// generation, and full packet tracing for the time-sequence diagrams of
// Figs. 3 and 4. One substrate, Fabric, carries every topology.
package netem

import (
	"math/rand"
	"time"

	"intango/internal/packet"
)

// PacketHandler is the monomorphic alternative to a scheduled closure:
// packet deliveries carry (handler, pkt, from, dir) in the event itself
// instead of allocating a capturing func. Fabric implements it; so can
// any model component with a per-packet timer.
type PacketHandler interface {
	HandlePacket(pkt *packet.Packet, from int, dir Direction)
}

// Simulator owns virtual time and the event queue. All model code runs
// single-threaded inside Run, so no locking is needed anywhere in the
// simulation.
type Simulator struct {
	now   time.Duration
	seq   uint64
	steps uint64
	queue []event
	rng   *rand.Rand
}

// event is a value type: the queue is a plain []event, so scheduling
// never boxes (the old container/heap path allocated an interface
// wrapper per Push/Pop). A popped slot is zeroed before reuse so the
// backing array — which doubles as the free list — retains neither the
// executed closure nor the delivered packet.
type event struct {
	at  time.Duration
	seq uint64 // tie-break for determinism
	fn  func()
	// Packet-event fields, used when fn is nil.
	h    PacketHandler
	pkt  *packet.Packet
	from int32
	dir  Direction
}

// eventLess orders events by (at, seq) — the same strict total order as
// the old heap, so replacing the heap shape cannot reorder ties.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewSimulator returns a simulator seeded for deterministic runs.
func NewSimulator(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic PRNG.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At schedules fn to run after delay (relative to now). A zero or
// negative delay runs on the next step, still in deterministic order.
func (s *Simulator) At(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.push(event{at: s.now + delay, seq: s.seq, fn: fn})
}

// AtPacket schedules h.HandlePacket(pkt, from, dir) after delay without
// allocating: the arguments ride in the event value itself. It shares
// the (at, seq) order with At, so closure and packet events interleave
// exactly as their scheduling order dictates.
func (s *Simulator) AtPacket(delay time.Duration, h PacketHandler, pkt *packet.Packet, from int, dir Direction) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	s.push(event{at: s.now + delay, seq: s.seq, h: h, pkt: pkt, from: int32(from), dir: dir})
}

// The queue is a 4-ary implicit heap: children of i are 4i+1..4i+4,
// parent is (i-1)/4. Compared to the binary container/heap it halves
// tree depth (fewer sift levels for the mostly-FIFO workload here) and,
// being monomorphic, costs zero allocations in steady state — append
// only grows the backing array until the high-water mark of concurrent
// events, after which popped slots are recycled.

func (s *Simulator) push(e event) {
	q := append(s.queue, e)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventLess(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	s.queue = q
}

// popTop removes the minimum event. The vacated tail slot is zeroed so
// the backing array does not retain the popped closure or packet (long
// campaigns previously kept every executed closure reachable).
func (s *Simulator) popTop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = event{}
	q = q[:n]
	s.queue = q
	i := 0
	for {
		best := i
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		for ; c < end; c++ {
			if eventLess(&q[c], &q[best]) {
				best = c
			}
		}
		if best == i {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	return top
}

// Step executes the next event. It reports false when the queue is
// empty.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	e := s.popTop()
	s.now = e.at
	s.steps++
	if e.fn != nil {
		e.fn()
	} else {
		e.h.HandlePacket(e.pkt, int(e.from), e.dir)
	}
	return true
}

// Steps returns the number of events executed so far — the
// observability layer's "netem events executed" figure.
func (s *Simulator) Steps() uint64 { return s.steps }

// Run executes events until the queue drains or the budget of events is
// exhausted (a guard against accidental livelock in model code). It
// returns the number of events executed.
func (s *Simulator) Run(budget int) int {
	n := 0
	for n < budget && s.Step() {
		n++
	}
	return n
}

// RunFor executes events with timestamps up to now+d, then advances the
// clock to exactly now+d (even if the queue still holds later events).
func (s *Simulator) RunFor(d time.Duration) {
	deadline := s.now + d
	for len(s.queue) > 0 && s.queue[0].at <= deadline {
		s.Step()
	}
	s.now = deadline
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int { return len(s.queue) }
