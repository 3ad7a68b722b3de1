package netem

import (
	"math/bits"

	"intango/internal/packet"
)

// The simulator lends byte buffers to the models running on it: a
// connection's send, receive and out-of-order buffers and a GFW
// stream's reassembly buffers all grow through Grow. A lent buffer
// lives until the simulator's next Reset, which takes back everything
// lent, so a simulator recycled from trial to trial (a campaign
// worker's, the goodput matrix's, a benchmark's arena) hands each trial
// the buffers of the trials before it. A simulator that was never
// reset — a one-shot trial's, a live daemon's clock, a unit test's —
// does not lend: Grow allocates, and the collector frees the buffers.
// Lending starts at the first Reset.

// minLendShift is the log2 capacity of the smallest buffer lent.
const minLendShift = 6

// lender holds the buffers a simulator lends. Every lent buffer's
// capacity is a power of two, 1<<c for its size class c.
type lender struct {
	on   bool       // a Reset has run: Grow lends
	lent [][]byte   // lent since the last Reset
	free [][][]byte // taken back, by size class
}

// Grow returns b with room for n more bytes. When b lacks it, Grow
// moves b's bytes into a buffer of at least twice b's capacity, lent
// by s when s lends (see Reset); b's old storage is left as it was, so
// views of it stay valid. The bytes past the result's length are
// unspecified: a lent buffer is not cleared.
func (s *Simulator) Grow(b []byte, n int) []byte {
	if len(b)+n <= cap(b) {
		return b
	}
	return append(s.bytes.lend(max(2*cap(b), len(b)+n)), b...)
}

// lend returns an empty buffer with room for n bytes. Unless lending
// is on it is new and holds exactly n; a lent one is rounded up to its
// size class and is one taken back at the last Reset if any is free.
func (l *lender) lend(n int) []byte {
	if !l.on {
		return make([]byte, 0, n)
	}
	c := max(bits.Len(uint(n-1)), minLendShift)
	var b []byte
	if c < len(l.free) && len(l.free[c]) > 0 {
		free := l.free[c]
		b, free[len(free)-1] = free[len(free)-1], nil
		l.free[c] = free[:len(free)-1]
	} else {
		b = make([]byte, 0, 1<<c)
	}
	l.lent = append(l.lent, b)
	return b
}

// reclaim takes back every buffer lent since the last reclaim and turns
// lending on. The checked build scribbles each one instead and never
// lends it again.
func (l *lender) reclaim() {
	l.on = true
	for i, b := range l.lent {
		if packet.Checked {
			packet.Scribble(b)
		} else {
			c := bits.Len(uint(cap(b) - 1))
			for len(l.free) <= c {
				l.free = append(l.free, nil)
			}
			l.free[c] = append(l.free[c], b)
		}
		l.lent[i] = nil
	}
	l.lent = l.lent[:0]
}

// Lends reports whether s lends (see Grow): whether it was ever reset.
// The models on s keep their per-trial objects for reuse (Spares) on
// the same condition, so what a one-shot trial or a live daemon makes
// is the collector's, and what a recycled trial makes is the next
// trial's.
func (s *Simulator) Lends() bool { return s.bytes.on }

// Spares recycles the objects of one type that a model makes as its
// world runs, as the simulator recycles byte buffers: a stack's
// connections, an engine's flows, a GFW device's TCBs, and the devices
// and middleboxes a rebuilt topology binds. Get hands out an object
// for the caller to initialise in full, and Rewind, at the model's
// Reset, takes back every object Get handed out since the last one:
// the Gets after it return the same objects again, in the same order.
// Get keeps what it makes only when asked to — a model keeps its
// objects while its simulator lends (Simulator.Lends) — so a model
// that is never reset keeps nothing. The zero Spares is empty and
// ready to use.
type Spares[T any] struct {
	all []*T
	n   int // handed out since the last Rewind
}

// Get returns an object for the caller to initialise: the next one
// taken back at the last Rewind, if any is left, else a new zero one,
// kept for the next trial when keep is set.
func (s *Spares[T]) Get(keep bool) *T {
	if s.n < len(s.all) {
		s.n++
		return s.all[s.n-1]
	}
	t := new(T)
	if keep {
		s.all = append(s.all, t)
		s.n++
	}
	return t
}

// Rewind takes back every object Get handed out. The checked build
// zeroes each one instead and never hands it out again, so a reference
// that outlived its trial reads zeros (a nil stack, a nil stream)
// rather than the next trial's state.
func (s *Spares[T]) Rewind() {
	if packet.Checked {
		var zero T
		for _, t := range s.all {
			*t = zero
		}
		clear(s.all)
		s.all = s.all[:0]
	}
	s.n = 0
}
