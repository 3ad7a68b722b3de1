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
// packet deliveries carry (handler, pkt, arg, dir) in the event itself
// instead of allocating a capturing func. arg is the int AtPacket was
// given, held as an int32: Fabric passes the directed link the packet
// is crossing, and a tcpstack connection its retransmission timer's
// generation (with a nil packet). Any model component whose timer
// needs one integer can implement it.
type PacketHandler interface {
	HandlePacket(pkt *packet.Packet, arg int, dir Direction)
}

// Simulator owns virtual time and the event queue. All model code runs
// single-threaded inside Run, so no locking is needed anywhere in the
// simulation.
type Simulator struct {
	now   time.Duration
	seq   uint64
	steps uint64
	heap  []event
	lanes [numLanes]lane
	rng   *rand.Rand
	src   Source // rng's source
	bytes lender // see Grow
}

// event is one queue slot. The heap is a plain []event and each lane a
// ring of them, so scheduling never boxes. Events are written and read
// in place: schedule stamps (at, seq) into a vacant slot and At or
// AtPacket fills in the payload, and run copies the payload out and
// zeroes the slot before it dispatches. Every vacant slot is zero, so
// the backing arrays — which double as free lists — retain neither an
// executed closure nor a delivered packet.
type event struct {
	at  time.Duration
	seq uint64 // tie-break for determinism
	fn  func()
	// Packet-event fields, used when fn is nil.
	h   PacketHandler
	pkt *packet.Packet
	arg int32
	dir Direction
}

// eventLess orders events by (at, seq) — the same strict total order as
// the old heap, so replacing the heap shape cannot reorder ties.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// NewSimulator returns a simulator seeded for deterministic runs. Its
// RNG is math/rand's stream for seed (see Source).
func NewSimulator(seed int64) *Simulator {
	s := new(Simulator)
	s.src.Seed(seed)
	s.rng = rand.New(&s.src)
	return s
}

// Reset returns s to NewSimulator(seed)'s state while keeping its
// queue storage: the clock and counters restart at zero, every pending
// event is dropped with its slot zeroed (so nothing pins a packet or a
// closure), and the RNG is reseeded in place, which yields a fresh
// source's stream without allocating one. Reset also takes back every
// buffer s lent since the last one (see Grow), and from the first
// Reset on, s lends: a connection's Received() and OnData views and a
// GFW stream's prefix die here. Objects built against s before the
// reset are dead after it, unless they are reset too: a fabric, stack,
// engine or device rebound to s by its own Reset serves the next run,
// and reuses what its models kept (see Spares).
func (s *Simulator) Reset(seed int64) {
	s.now, s.seq, s.steps = 0, 0, 0
	clear(s.heap)
	s.heap = s.heap[:0]
	for i := range s.lanes {
		// Popped slots are already zero: empty only the live ones.
		l := &s.lanes[i]
		for l.n > 0 {
			l.pop()
		}
		l.head = 0
	}
	s.rng.Seed(seed)
	s.bytes.reclaim()
}

// Now returns the current virtual time.
func (s *Simulator) Now() time.Duration { return s.now }

// Rand returns the simulation's deterministic PRNG.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// At schedules fn to run after delay (relative to now). A zero or
// negative delay runs on the next step, still in deterministic order.
func (s *Simulator) At(delay time.Duration, fn func()) {
	s.schedule(delay).fn = fn
}

// AtPacket schedules h.HandlePacket(pkt, arg, dir) after delay without
// allocating: the arguments ride in the event itself. It shares the
// (at, seq) order with At, so closure and packet events interleave
// exactly as their scheduling order dictates.
func (s *Simulator) AtPacket(delay time.Duration, h PacketHandler, pkt *packet.Packet, arg int, dir Direction) {
	e := s.schedule(delay)
	e.h, e.pkt, e.arg, e.dir = h, pkt, int32(arg), dir
}

// The event queue is a 4-ary heap beside numLanes FIFO lanes.
//
// Nearly every event is a link crossing scheduled with its link's fixed
// latency: 98 % of the events a Table 1 sweep schedules are 1 ms hops,
// with about 30 of them pending at each pop. Events scheduled with one
// delay already arrive in (at, seq) order — virtual time never runs
// backwards and seq only grows — so each such event is appended to the
// FIFO lane of its delay in O(1) instead of being sifted through a heap.
// A lane is claimed by a delay when it is empty and that delay has no
// lane; an event whose delay finds no lane (shaped-link queueing delays,
// rare timers, a fifth delay in flight) goes to the heap. The next event
// is the least of the heap top and the lane heads, so the total (at,
// seq) order — and with it every trial — is exactly a single heap's.
//
// An event is written into the slot it waits in and read from there
// once, so a hop on a lane costs one slot write and one read; only the
// heap moves events, as it sifts. The slot schedule returns stays valid
// only until the next schedule, since a push may regrow the ring or the
// heap under it, and run empties the head slot before dispatching, as
// the handler may schedule more.
//
// Heap and lanes grow only to the high-water mark of concurrent events,
// after which vacated slots are reused: zero allocations in steady
// state.

// numLanes is the number of FIFO lanes: enough for the delays a trial
// keeps in flight at once (the 1 ms hop and the 0, 20, 40 and 200 ms
// timers; only 20 of the 345k events of a 660-trial Table 1 sweep find
// no lane), few enough that scanning the lane heads stays cheaper than
// a heap pop.
const numLanes = 4

// minLaneRing is the length of a lane's first ring, which is stored in
// the lane itself: a timer lane rarely holds more, so most lanes never
// allocate, and a trial's lanes together allocate less than the heap
// alone did.
const minLaneRing = 4

// lane is a FIFO ring of events scheduled with one delay. The ring is
// nil until the first push, then first, then doubled copies, so its
// length is a power of two; the n queued events occupy ring[head],
// ring[head+1], ... modulo the length, and every other slot is zero.
type lane struct {
	delay time.Duration
	ring  []event
	head  int
	n     int
	first [minLaneRing]event
}

// push appends a vacant slot stamped (at, seq) and returns it.
func (l *lane) push(at time.Duration, seq uint64) *event {
	if l.ring == nil {
		l.ring = l.first[:]
	} else if l.n == len(l.ring) {
		ring := make([]event, 2*len(l.ring))
		k := copy(ring, l.ring[l.head:])
		copy(ring[k:], l.ring[:l.head])
		clear(l.ring) // first outlives the move; keep it from pinning
		l.ring, l.head = ring, 0
	}
	e := &l.ring[(l.head+l.n)&(len(l.ring)-1)]
	e.at, e.seq = at, seq
	l.n++
	return e
}

// pop zeroes the head slot and advances past it.
func (l *lane) pop() {
	l.ring[l.head] = event{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
}

// schedule stamps the next sequence number and the time delay from now
// into a vacant slot and returns it for the caller to fill: a slot on
// its delay's lane, else on the empty lane with the smallest ring (a
// busy delay's grown ring stays keyed to it while it idles), else on
// the heap. A new event's seq exceeds every queued one's, so a lane
// takes it only if its tail is not due later, and each lane stays
// sorted by construction, not only because the clock never runs
// backwards.
func (s *Simulator) schedule(delay time.Duration) *event {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	at := s.now + delay
	var free *lane
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.delay == delay && (l.n == 0 || l.ring[(l.head+l.n-1)&(len(l.ring)-1)].at <= at) {
			return l.push(at, s.seq)
		}
		if l.n == 0 && (free == nil || len(l.ring) < len(free.ring)) {
			free = l
		}
	}
	if free != nil {
		free.delay = delay
		return free.push(at, s.seq)
	}
	return s.heapPush(at, s.seq)
}

// The heap is a 4-ary implicit heap: children of i are 4i+1..4i+4,
// parent is (i-1)/4. Compared to the binary container/heap it halves
// tree depth and, being monomorphic, costs zero allocations in steady
// state.

// heapPush opens a vacant slot for (at, seq) — the newest seq, so it
// rises past every parent due later — and returns it.
func (s *Simulator) heapPush(at time.Duration, seq uint64) *event {
	s.heap = append(s.heap, event{})
	q := s.heap
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if q[p].at <= at {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = event{at: at, seq: seq}
	return &q[i]
}

// heapPop removes the top event, moving the last one into its place
// and sifting it down. The vacated tail slot is zeroed so the backing
// array does not retain the popped closure or packet.
func (s *Simulator) heapPop() {
	q := s.heap
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	s.heap = q
	if n == 0 {
		return
	}
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		best := c
		for end := min(c+4, n); c < end; c++ {
			if eventLess(&q[c], &q[best]) {
				best = c
			}
		}
		if !eventLess(&q[best], &last) {
			break
		}
		q[i] = q[best]
		i = best
	}
	q[i] = last
}

// fromHeap is next's source index for the heap top; 0..numLanes-1 name
// lanes.
const fromHeap = numLanes

// next returns where the earliest pending event sits and the event
// itself, or (-1, nil) when nothing is pending.
func (s *Simulator) next() (int, *event) {
	src, first := -1, (*event)(nil)
	if len(s.heap) > 0 {
		src, first = fromHeap, &s.heap[0]
	}
	for i := range s.lanes {
		l := &s.lanes[i]
		if l.n > 0 && (first == nil || eventLess(&l.ring[l.head], first)) {
			src, first = i, &l.ring[l.head]
		}
	}
	return src, first
}

// run executes e, the event next reported at src: it copies e's
// payload out, empties e's slot and advances the queue, then
// dispatches — the handler may schedule into the slot e was, or regrow
// the ring or heap e lived in.
func (s *Simulator) run(src int, e *event) {
	at, fn, h, pkt, arg, dir := e.at, e.fn, e.h, e.pkt, e.arg, e.dir
	if src == fromHeap {
		s.heapPop()
	} else {
		s.lanes[src].pop()
	}
	s.now = at
	s.steps++
	if fn != nil {
		fn()
	} else {
		h.HandlePacket(pkt, int(arg), dir)
	}
}

// Step executes the next event. It reports false when the queue is
// empty.
func (s *Simulator) Step() bool {
	src, e := s.next()
	if src < 0 {
		return false
	}
	s.run(src, e)
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
// A negative d is clamped to zero, as At clamps negative delays:
// virtual time never runs backwards.
func (s *Simulator) RunFor(d time.Duration) {
	if d < 0 {
		d = 0
	}
	deadline := s.now + d
	for {
		src, e := s.next()
		if src < 0 || e.at > deadline {
			break
		}
		s.run(src, e)
	}
	s.now = deadline
}

// Pending returns the number of queued events.
func (s *Simulator) Pending() int {
	n := len(s.heap)
	for i := range s.lanes {
		n += s.lanes[i].n
	}
	return n
}
