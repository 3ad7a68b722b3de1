package netem

import (
	"fmt"
	"math/rand"
	"slices"
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
// rides in the arg argument.
type indexHandler func(i int)

func (f indexHandler) HandlePacket(_ *packet.Packet, arg int, _ Direction) { f(arg) }

// isZero reports whether a queue slot holds no event.
func isZero(e *event) bool {
	return e.at == 0 && e.seq == 0 && e.fn == nil && e.h == nil && e.pkt == nil && e.arg == 0 && e.dir == 0
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

// replaySchedule runs a scripted schedule on s — closure and packet
// events over zero, fixed and odd delays, each spawning more — and
// returns what every event saw: its name, the virtual time and two
// draws from s's RNG, followed by the step count.
func replaySchedule(s *Simulator) []string {
	delays := []time.Duration{0, time.Millisecond, 3 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 200 * time.Millisecond, 216 * time.Millisecond}
	var log []string
	var depths []int // the generations event i may still spawn
	var spawn func(depth int)
	run := func(i int) {
		log = append(log, fmt.Sprintf("%d@%v:%d/%v", i, s.Now(), s.Rand().Intn(1000), s.Rand().Float64()))
		if depths[i] > 0 {
			spawn(depths[i] - 1)
			spawn(depths[i] - 1)
		}
	}
	spawn = func(depth int) {
		i := len(depths)
		depths = append(depths, depth)
		if i%2 == 0 {
			s.At(delays[i%len(delays)], func() { run(i) })
		} else {
			s.AtPacket(delays[i%len(delays)], indexHandler(run), nil, i, ToClient)
		}
	}
	for i := 0; i < 24; i++ {
		spawn(3)
	}
	s.Run(1 << 20)
	return append(log, fmt.Sprintf("steps %d", s.Steps()))
}

// TestSimulatorReset leaves events pending on the heap and on every
// lane, one lane grown past its inline ring, then resets: the clock,
// the counters and the queue must be empty with every slot zeroed, and
// a scripted schedule must then run exactly as on a new simulator with
// the same seed — same pop order, same RNG draws.
func TestSimulatorReset(t *testing.T) {
	s := NewSimulator(3)
	pkt := packet.NewTCP(packet.AddrFrom4(10, 0, 0, 1), 1, packet.AddrFrom4(10, 0, 0, 2), 2, packet.FlagSYN, 1, 0, nil)
	h := indexHandler(func(int) {})
	for i := 0; i < 3*minLaneRing; i++ {
		s.AtPacket(time.Millisecond, h, pkt, i, ToServer)
	}
	for _, d := range []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 200 * time.Millisecond,
		216 * time.Millisecond, time.Second} {
		s.At(d, func() { s.Rand().Int63() })
		s.At(d, func() {})
	}
	s.Rand().Float64()
	s.RunFor(500 * time.Microsecond)
	s.Step()
	if s.Now() == 0 || s.Steps() == 0 || len(s.heap) == 0 {
		t.Fatalf("mix left now %v, steps %d, %d heap events; want all non-zero", s.Now(), s.Steps(), len(s.heap))
	}
	grown := false
	for li := range s.lanes {
		l := &s.lanes[li]
		if l.n == 0 {
			t.Fatalf("lane %d (delay %v) holds no pending event", li, l.delay)
		}
		grown = grown || len(l.ring) > minLaneRing
	}
	if !grown {
		t.Fatal("no lane grew past its inline ring")
	}

	s.Reset(11)
	if s.Now() != 0 || s.Steps() != 0 || s.Pending() != 0 {
		t.Fatalf("after Reset: now %v, steps %d, pending %d; want all zero", s.Now(), s.Steps(), s.Pending())
	}
	requireAllSlotsZeroed(t, s)

	got, want := replaySchedule(s), replaySchedule(NewSimulator(11))
	if !slices.Equal(got, want) {
		t.Fatalf("reset simulator diverged from a new one:\n got %v\nwant %v", got, want)
	}
	// Twice in a row, and after a run that drained: the same again.
	s.Reset(11)
	if got := replaySchedule(s); !slices.Equal(got, want) {
		t.Fatalf("second reset diverged:\n got %v\nwant %v", got, want)
	}
}

// TestSimulatorResetWrappedLane resets with a lane's pending events
// wrapped past the end of its ring, on the inline ring and on a grown
// one: Reset clears only the live slots, so both runs of them, before
// and after the wrap, must come back zero.
func TestSimulatorResetWrappedLane(t *testing.T) {
	pkt := packet.NewTCP(packet.AddrFrom4(10, 0, 0, 1), 1, packet.AddrFrom4(10, 0, 0, 2), 2, packet.FlagSYN, 1, 0, nil)
	h := indexHandler(func(int) {})
	for _, size := range []int{minLaneRing, 4 * minLaneRing} {
		s := NewSimulator(3)
		for i := 0; i < size; i++ {
			s.AtPacket(time.Millisecond, h, pkt, i, ToServer)
		}
		// Pop half at their common time, then refill: the new tail
		// wraps to the front of the ring.
		for i := 0; i < size/2; i++ {
			s.Step()
		}
		for i := 0; i < size/2; i++ {
			s.AtPacket(time.Millisecond, h, pkt, i, ToServer)
		}
		l := &s.lanes[0]
		if len(l.ring) != size || l.n != size || l.head != size/2 {
			t.Fatalf("ring %d: len %d, n %d, head %d; want a full ring wrapped at %d",
				size, len(l.ring), l.n, l.head, size/2)
		}
		s.Reset(11)
		if s.Pending() != 0 {
			t.Fatalf("ring %d: %d events pending after Reset", size, s.Pending())
		}
		requireAllSlotsZeroed(t, s)
		if got, want := replaySchedule(s), replaySchedule(NewSimulator(11)); !slices.Equal(got, want) {
			t.Fatalf("ring %d: reset simulator diverged from a new one:\n got %v\nwant %v", size, got, want)
		}
	}
}
