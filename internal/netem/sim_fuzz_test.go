package netem

import (
	"slices"
	"testing"
	"time"
)

// FuzzSimulatorOrder drives the event queue from a byte script and
// holds it to a reference: the events a run executes are the first of
// everything it scheduled, stable-sorted by (at, seq), each executed at
// its own time, and no slot that holds no queued event holds anything
// at all. The script interleaves, from outside any event, single
// schedules, bursts of one delay, RunFor (negative durations too), Step
// and Reset; each event it schedules is a closure or a packet event
// that, when it runs, schedules up to three more from the script. The
// delays — negative, 0, 1 ms, 20, 40 and 200 ms, and odd microseconds —
// put more distinct delays in flight than there are lanes, so events
// spill onto the heap, and events that schedule from inside a dispatch
// grow the ring they were popped from. After every Reset each slot,
// inline rings included, must be zero.
//
// Its seed corpus runs in `make fuzz-smoke`; `go test -fuzz
// FuzzSimulatorOrder ./internal/netem` searches further.
func FuzzSimulatorOrder(f *testing.F) {
	for _, s := range orderSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script []byte) { runOrderScript(t, script) })
}

// orderSeeds is FuzzSimulatorOrder's seed corpus. Script bytes: an op
// (mod 6: 0-1 schedule d k, 2 RunFor b, 3 Step n, 4 Reset seed, 5 burst
// n d k), then its operands; a running event's spawns read their d k
// pairs from where the script has got to.
var orderSeeds = [][]byte{
	// Five delays in flight, then a 1 ms burst whose events each
	// schedule three more hops onto their own full lane mid-dispatch;
	// RunFor backwards, Reset, and spawning events after it.
	{0, 4, 0, 0, 5, 1, 0, 6, 0, 0, 15, 1, 0, 23, 0, 0, 1, 1, 0, 8, 0, 3, 3, 5, 4, 2, 6, 2, 40, 2, 1, 2, 1, 2, 0, 2, 1, 31, 0, 2, 1, 4, 1, 2, 0, 6, 3, 2, 1, 1, 0, 2, 5, 2, 36, 2, 1, 39, 0, 2, 0, 4, 9, 0, 2, 7, 0, 4, 6, 5, 6, 3, 1, 2, 44},
	// Resets with events pending on lanes, between partial runs.
	{5, 9, 2, 1, 0, 5, 0, 2, 34, 4, 200, 5, 5, 4, 0, 0, 6, 1, 2, 20, 3, 5, 4, 255, 0, 15, 2, 0, 15, 3, 2, 60, 4, 1, 3, 7},
	// An arbitrary script.
	{77, 133, 51, 167, 86, 13, 210, 208, 38, 52, 64, 163, 242, 230, 210, 106, 102, 162, 171, 168, 218, 47, 251, 207, 41, 105, 124, 17, 103, 48, 42, 97, 129, 145, 156, 131, 83, 60, 11, 136, 119, 112, 121, 28, 6, 153, 143, 70, 171, 229, 78, 140, 221, 80, 84, 207, 61, 64, 219, 176, 114, 59, 26, 99, 223, 88, 88, 41, 58, 150, 1, 161, 205, 234, 27, 84, 60, 233, 170, 6, 37, 55, 47, 170, 131, 43, 154, 22, 13, 99, 112, 6, 80, 12, 69, 159, 64, 214, 140, 55, 198, 50, 111, 122, 101, 115, 49, 154, 64, 199, 71, 42, 229, 249, 1, 91, 96, 159, 207, 48, 151, 105, 186, 152, 73, 50, 2, 141, 31, 198, 191, 144, 202, 236, 50, 34, 240, 108, 5, 35, 174, 7, 91, 142, 150, 51, 1, 21, 108, 105, 207, 40, 184, 144, 226, 25, 70, 192, 203, 201, 130, 1, 234, 46, 251, 163, 117, 102, 149, 230, 172, 194, 105, 26, 178, 69, 46, 188, 10, 60, 244, 122, 72, 151, 3, 71, 186, 179, 75, 9, 117, 221, 229, 126, 200, 198, 148, 151, 42, 252, 137, 180, 64, 238, 120, 248, 66, 181, 167, 72, 63, 137, 19, 97, 189, 200, 109, 157, 241, 91, 69, 65, 140, 12, 39, 87, 173, 140, 125, 162, 43, 74, 135, 132, 49, 67, 155, 38, 253, 20, 22, 243, 241, 200, 48, 68, 159, 214, 87, 233, 226, 247, 78, 91, 97, 103, 148, 60, 97, 228, 205, 239, 34, 156, 58, 111, 105, 156, 106, 147, 223, 242, 48, 186, 125, 94, 190, 149, 77, 5, 171, 193, 75, 145, 65, 33, 91, 18, 59, 143, 213, 45, 98, 226, 227, 208, 22, 89, 88, 48, 254, 152, 81, 124, 140, 119, 60, 48, 228, 221, 171, 121, 85, 28, 231, 45, 12, 146, 15, 130, 183, 134, 157, 205, 32, 186, 7, 31, 91, 80, 117, 36, 225, 215, 21, 0, 111, 199, 236, 47, 146, 237, 151, 168, 53, 228, 96, 76, 60, 17, 180, 95, 103, 92, 115, 149, 0, 63, 26, 114, 218, 193, 141, 174, 67, 163, 27, 5, 47, 243, 90, 75, 107, 178, 64, 75, 149, 51, 87, 155, 238, 104, 43, 60, 79, 13, 79, 180, 157, 186, 11, 133, 13, 228, 0, 163, 146, 240, 232, 159},
}

// TestOrderSeedsCover requires FuzzSimulatorOrder's seed corpus to
// reach what the target exists for: events on the heap beside full
// lanes, and a lane ring regrown by a push from inside a dispatch.
func TestOrderSeedsCover(t *testing.T) {
	var heap, regrown bool
	for _, s := range orderSeeds {
		o := runOrderScript(t, s)
		heap, regrown = heap || o.heapUsed, regrown || o.regrown
	}
	if !heap || !regrown {
		t.Fatalf("seed corpus: heap used %v, ring regrown in a dispatch %v; want both", heap, regrown)
	}
}

// orderScript decodes a FuzzSimulatorOrder input; see there.
type orderScript struct {
	t      *testing.T
	s      *Simulator
	in     []byte
	sched  []order // event i's place in the total order
	spawns []int   // how many events event i schedules when it runs
	ran    []int   // executed event indices, in execution order
	// running is set inside an event's body; heapUsed and regrown
	// record what the script reached.
	running, heapUsed, regrown bool
}

// maxScriptEvents bounds one script's events, spawned ones included.
const maxScriptEvents = 4096

// next consumes a script byte; a spent script reads zeros.
func (o *orderScript) next() byte {
	if len(o.in) == 0 {
		return 0
	}
	b := o.in[0]
	o.in = o.in[1:]
	return b
}

// delay decodes a delay byte: its low three bits pick the kind, the
// rest scale it.
func delay(b byte) time.Duration {
	switch b & 7 {
	case 0:
		return -time.Duration(1+b>>3) * time.Millisecond
	case 1:
		return 0
	case 2, 3:
		return time.Millisecond
	case 4:
		return 20 * time.Millisecond
	case 5:
		return 40 * time.Millisecond
	case 6:
		return 200 * time.Millisecond
	}
	return time.Duration(2*int(b>>3)+1) * time.Microsecond
}

// schedule queues one event from a delay byte and a kind byte: bit 0
// of kind makes it a packet event, bits 1-2 count the events it
// schedules when it runs.
func (o *orderScript) schedule(d, kind byte) {
	if len(o.sched) >= maxScriptEvents {
		return
	}
	i := len(o.sched)
	o.spawns = append(o.spawns, int(kind>>1&3))
	rings := o.ringSlots()
	if kind&1 == 1 {
		o.s.AtPacket(delay(d), indexHandler(o.run), nil, i, ToServer)
	} else {
		o.s.At(delay(d), func() { o.run(i) })
	}
	o.sched = append(o.sched, order{at: o.s.Now() + max(delay(d), 0), seq: o.s.seq})
	o.heapUsed = o.heapUsed || len(o.s.heap) > 0
	o.regrown = o.regrown || (o.running && o.ringSlots() > rings)
}

// ringSlots totals the lanes' ring lengths.
func (o *orderScript) ringSlots() int {
	n := 0
	for i := range o.s.lanes {
		n += len(o.s.lanes[i].ring)
	}
	return n
}

// run is event i's body.
func (o *orderScript) run(i int) {
	if o.s.Now() != o.sched[i].at {
		o.t.Fatalf("event %d (%+v) ran at %v", i, o.sched[i], o.s.Now())
	}
	o.ran = append(o.ran, i)
	o.running = true
	for k := 0; k < o.spawns[i]; k++ {
		o.schedule(o.next(), o.next())
	}
	o.running = false
}

// checkSlots requires the queue to hold exactly the events that have
// not run, and every vacant slot to be zero.
func (o *orderScript) checkSlots() {
	o.t.Helper()
	if p := o.s.Pending(); p != len(o.sched)-len(o.ran) {
		o.t.Fatalf("%d events pending; %d scheduled, %d ran", p, len(o.sched), len(o.ran))
	}
	requireVacantSlotsZeroed(o.t, o.s)
}

// checkOrder compares what ran with the reference order: everything
// scheduled, stable-sorted by (at, seq).
func (o *orderScript) checkOrder() {
	o.t.Helper()
	want := make([]int, len(o.sched))
	for i := range want {
		want[i] = i
	}
	slices.SortStableFunc(want, func(a, b int) int {
		switch {
		case o.sched[a].less(o.sched[b]):
			return -1
		case o.sched[b].less(o.sched[a]):
			return 1
		}
		return 0
	})
	if len(o.ran) > len(want) || !slices.Equal(o.ran, want[:len(o.ran)]) {
		o.t.Fatalf("ran %v; the (at, seq) order starts %v", o.ran, want[:min(len(want), len(o.ran))])
	}
}

// runOrderScript plays one script (see FuzzSimulatorOrder) and
// returns its state.
func runOrderScript(t *testing.T, script []byte) *orderScript {
	o := &orderScript{t: t, s: NewSimulator(1), in: script}
	for len(o.in) > 0 {
		switch o.next() % 6 {
		case 0, 1:
			o.schedule(o.next(), o.next())
		case 2:
			o.s.RunFor(time.Duration(int(o.next())-32) * 250 * time.Microsecond)
		case 3:
			for k := o.next() % 8; k > 0; k-- {
				o.s.Step()
			}
		case 4:
			o.checkOrder()
			o.s.Reset(int64(o.next()))
			requireAllSlotsZeroed(t, o.s)
			o.sched, o.spawns, o.ran = o.sched[:0], o.spawns[:0], o.ran[:0]
		case 5:
			n, d, kind := o.next()%16, o.next(), o.next()
			for ; n > 0; n-- {
				o.schedule(d, kind)
			}
		}
		o.checkSlots()
	}
	o.s.Run(8 * maxScriptEvents)
	o.checkSlots()
	o.checkOrder()
	return o
}

// requireAllSlotsZeroed fails unless the queue's every slot — the
// heap's backing array and every lane's ring and inline ring — is
// zero.
func requireAllSlotsZeroed(t *testing.T, s *Simulator) {
	t.Helper()
	for i, e := range s.heap[:cap(s.heap)] {
		if !isZero(&e) {
			t.Fatalf("heap slot %d holds %+v after Reset", i, e)
		}
	}
	for li := range s.lanes {
		l := &s.lanes[li]
		for i := range l.ring {
			if !isZero(&l.ring[i]) {
				t.Fatalf("lane %d ring slot %d holds %+v after Reset", li, i, l.ring[i])
			}
		}
		for i := range l.first {
			if !isZero(&l.first[i]) {
				t.Fatalf("lane %d inline slot %d holds %+v after Reset", li, i, l.first[i])
			}
		}
	}
}
