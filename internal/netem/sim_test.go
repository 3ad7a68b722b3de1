package netem

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"intango/internal/packet"
)

// order is an event's place in the simulator's total order.
type order struct {
	at  time.Duration
	seq uint64
}

func (o order) less(p order) bool {
	if o.at != p.at {
		return o.at < p.at
	}
	return o.seq < p.seq
}

// indexHandler is a PacketHandler that runs the event whose index
// rides in the from argument.
type indexHandler func(i int)

func (f indexHandler) HandlePacket(_ *packet.Packet, from int, _ Direction) { f(from) }

// isZero reports whether a queue slot holds no event.
func isZero(e *event) bool {
	return e.at == 0 && e.seq == 0 && e.fn == nil && e.h == nil && e.pkt == nil && e.from == 0 && e.dir == 0
}

// requireVacantSlotsZeroed fails unless every heap and lane slot that
// holds no queued event is zero, so no executed closure or delivered
// packet stays reachable from the queue.
func requireVacantSlotsZeroed(t *testing.T, s *Simulator) {
	t.Helper()
	for i, e := range s.heap[len(s.heap):cap(s.heap)] {
		if !isZero(&e) {
			t.Fatalf("vacant heap slot %d holds %+v", len(s.heap)+i, e)
		}
	}
	for li := range s.lanes {
		l := &s.lanes[li]
		for i := range l.ring {
			queued := (i-l.head)&(len(l.ring)-1) < l.n
			if !queued && !isZero(&l.ring[i]) {
				t.Fatalf("vacant slot %d of lane %d (delay %v) holds %+v", i, li, l.delay, l.ring[i])
			}
		}
	}
}

// TestQueueOrderRandomized drives the simulator with a seeded mix of
// fixed delays (more distinct ones than there are lanes), random
// delays, zero and negative delays, closure and packet events, and
// events that schedule further events, through both Step and RunFor.
// Events must run in strictly ascending (at, seq) order — exactly the
// order a sort of everything scheduled gives — and every popped slot
// must be zeroed.
func TestQueueOrderRandomized(t *testing.T) {
	fixed := []time.Duration{time.Millisecond, 2 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 200 * time.Millisecond, 216 * time.Millisecond, time.Second}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSimulator(seed)
		var scheduled, ran []order
		var depths []int // how many generations an event may still spawn
		usedHeap, usedLanes := false, false

		var schedule func(depth int)
		run := func(i int) {
			if s.Now() != scheduled[i].at {
				t.Fatalf("seed %d: event %+v ran at %v", seed, scheduled[i], s.Now())
			}
			ran = append(ran, scheduled[i])
			if depths[i] > 0 {
				for k := rng.Intn(3); k > 0; k-- {
					schedule(depths[i] - 1)
				}
			}
		}
		rec := indexHandler(run)
		schedule = func(depth int) {
			var delay time.Duration
			switch r := rng.Intn(10); {
			case r < 6:
				delay = fixed[rng.Intn(len(fixed))]
			case r < 8:
				delay = time.Duration(rng.Int63n(int64(300 * time.Millisecond)))
			case r < 9:
				delay = 0
			default:
				delay = -time.Duration(rng.Int63n(int64(time.Second)))
			}
			i := len(scheduled)
			at := s.Now() + max(delay, 0)
			if rng.Intn(2) == 0 {
				s.At(delay, func() { run(i) })
			} else {
				s.AtPacket(delay, rec, nil, i, ToServer)
			}
			scheduled = append(scheduled, order{at: at, seq: s.seq})
			depths = append(depths, depth)
			usedHeap = usedHeap || len(s.heap) > 0
			for li := range s.lanes {
				usedLanes = usedLanes || s.lanes[li].n > 1
			}
		}

		for i := 0; i < 200; i++ {
			schedule(3)
		}
		for s.Pending() > 0 {
			before := s.Now()
			if rng.Intn(4) == 0 {
				s.RunFor(time.Duration(rng.Int63n(int64(50*time.Millisecond))) - 10*time.Millisecond)
			} else {
				s.Step()
			}
			if s.Now() < before {
				t.Fatalf("seed %d: clock ran backwards: %v -> %v", seed, before, s.Now())
			}
			requireVacantSlotsZeroed(t, s)
			if len(scheduled) < 2000 && rng.Intn(8) == 0 {
				schedule(2) // a fresh event from outside any handler
			}
		}

		if !usedHeap || !usedLanes {
			t.Fatalf("seed %d: mix did not exercise both queues (heap %v, lanes %v)", seed, usedHeap, usedLanes)
		}
		want := append([]order(nil), scheduled...)
		sort.Slice(want, func(a, b int) bool { return want[a].less(want[b]) })
		if len(ran) != len(want) {
			t.Fatalf("seed %d: ran %d of %d scheduled events", seed, len(ran), len(want))
		}
		for i := range ran {
			if ran[i] != want[i] {
				t.Fatalf("seed %d: event %d ran %+v, sorted order has %+v", seed, i, ran[i], want[i])
			}
			if i > 0 && !ran[i-1].less(ran[i]) {
				t.Fatalf("seed %d: %+v ran after %+v", seed, ran[i], ran[i-1])
			}
		}
	}
}

// TestRunForNegativeDuration pins RunFor's clamp: a negative duration
// runs nothing and leaves the clock where it is, as At treats a
// negative delay as zero, so virtual time never runs backwards.
func TestRunForNegativeDuration(t *testing.T) {
	s := NewSimulator(1)
	var got []int
	s.At(10*time.Millisecond, func() { got = append(got, 10) })
	s.RunFor(5 * time.Millisecond)
	s.RunFor(-3 * time.Millisecond)
	if s.Now() != 5*time.Millisecond || len(got) != 0 {
		t.Fatalf("after RunFor(-3ms): now %v, ran %v; want 5ms and nothing", s.Now(), got)
	}
	s.At(5*time.Millisecond, func() { got = append(got, 11) }) // also due at 10 ms, scheduled later
	s.RunFor(5 * time.Millisecond)
	if s.Now() != 10*time.Millisecond || len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("now %v, ran %v; want 10ms and [10 11]", s.Now(), got)
	}
}
