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
