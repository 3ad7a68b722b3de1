package netem

import (
	"bytes"
	"testing"
	"unsafe"

	"intango/internal/packet"
)

// lendSizes is a trial's mix of Grow requests: small request and
// response buffers, a segment's worth and an upload's worth.
var lendSizes = []int{1, 64, 65, 300, 1460, 4096, 70_000}

// lendAll grows one buffer from empty per size and returns them in
// bufs, or in a new slice when bufs is nil.
func lendAll(sim *Simulator, bufs [][]byte) [][]byte {
	if bufs == nil {
		bufs = make([][]byte, len(lendSizes))
	}
	for i, n := range lendSizes {
		bufs[i] = sim.Grow(nil, n)
	}
	return bufs
}

// storage identifies a buffer by the array under it.
func storage(b []byte) *byte { return unsafe.SliceData(b) }

// TestGrowWithoutResetAllocates: a simulator never reset lends
// nothing. Grow allocates exactly what is asked, keeps no record of it,
// and moves the bytes it is given.
func TestGrowWithoutResetAllocates(t *testing.T) {
	sim := NewSimulator(1)
	if avg := testing.AllocsPerRun(100, func() { sim.Grow(nil, 100) }); avg != 1 {
		t.Fatalf("Grow on a simulator never reset: %.1f allocs, want 1", avg)
	}
	b := sim.Grow(append(make([]byte, 0, 3), "abc"...), 10)
	if string(b) != "abc" || cap(b) != 13 {
		t.Fatalf("Grow moved %q into cap %d, want \"abc\" in cap 13", b, cap(b))
	}
	if b2 := sim.Grow(b, 10); storage(b2) != storage(b) {
		t.Fatal("Grow moved a buffer with room to spare")
	}
	if b3 := sim.Grow(b, 11); cap(b3) != 26 || string(b3) != "abc" {
		t.Fatalf("Grow past the room: cap %d holding %q, want double, 26, holding \"abc\"", cap(b3), b3)
	}
	if len(sim.bytes.lent) != 0 {
		t.Fatalf("a simulator never reset recorded %d lent buffers", len(sim.bytes.lent))
	}
}

// TestResetTakesBackEverythingLent: after a Reset the same requests
// are served from the buffers lent before it, every one of them, with
// no allocation. It measures recycling, which the checked build never
// does.
func TestResetTakesBackEverythingLent(t *testing.T) {
	if packet.Checked {
		t.Skip("the checked build never lends a buffer twice")
	}
	sim := NewSimulator(1)
	sim.Reset(1)
	before := map[*byte]bool{}
	for _, b := range lendAll(sim, nil) {
		before[storage(b)] = true
	}
	sim.Reset(2)
	if len(sim.bytes.lent) != 0 {
		t.Fatalf("%d buffers still lent after Reset", len(sim.bytes.lent))
	}
	for i, b := range lendAll(sim, nil) {
		if !before[storage(b)] {
			t.Fatalf("Grow(nil, %d) after Reset drew a new buffer", lendSizes[i])
		}
		delete(before, storage(b))
	}
	if len(before) != 0 {
		t.Fatalf("%d buffers taken back but not lent again", len(before))
	}
	bufs := make([][]byte, len(lendSizes))
	if avg := testing.AllocsPerRun(20, func() {
		sim.Reset(3)
		lendAll(sim, bufs)
	}); avg != 0 {
		t.Fatalf("a reset and a trial's lending: %.1f allocs, want 0", avg)
	}
}

// TestNoBufferLentTwice: between two resets every lent buffer is
// distinct, however many of one size class are asked for and however
// often a buffer is moved, in the checked build as in the normal one.
func TestNoBufferLentTwice(t *testing.T) {
	sim := NewSimulator(1)
	for round := 0; round < 3; round++ {
		sim.Reset(int64(round))
		seen := map[*byte]bool{}
		note := func(b []byte) {
			if seen[storage(b)] {
				t.Fatalf("round %d: a buffer was lent twice", round)
			}
			seen[storage(b)] = true
		}
		// More of each class than the last round took back.
		for k := 0; k < round+2; k++ {
			for _, b := range lendAll(sim, nil) {
				note(b)
			}
		}
		// A buffer grown byte by byte moves through every class up
		// to 4 KiB, keeping its bytes.
		var grown []byte
		for i := 0; i < 4096; i++ {
			before := storage(grown)
			grown = append(sim.Grow(grown, 1), byte(i))
			if storage(grown) != before {
				note(grown)
			}
		}
		for i, c := range grown {
			if c != byte(i) {
				t.Fatalf("round %d: byte %d of a grown buffer is %d", round, i, c)
			}
		}
	}
}

// TestResetScribblesUnderChecked: the checked build scribbles every
// buffer a Reset takes back, across its capacity, and never lends it
// again, so a view that outlives its trial reads junk.
func TestResetScribblesUnderChecked(t *testing.T) {
	if !packet.Checked {
		t.Skip("only the checked build scribbles taken-back buffers")
	}
	sim := NewSimulator(1)
	sim.Reset(1)
	old := lendAll(sim, nil)
	for _, b := range old {
		copy(b[:cap(b)], bytes.Repeat([]byte{'x'}, cap(b)))
	}
	sim.Reset(2)
	fresh := map[*byte]bool{}
	for _, b := range lendAll(sim, nil) {
		fresh[storage(b)] = true
	}
	for i, b := range old {
		if fresh[storage(b)] {
			t.Fatalf("Grow(nil, %d) lent a taken-back buffer again", lendSizes[i])
		}
		for _, c := range b[:cap(b)] {
			if c == 'x' {
				t.Fatalf("Grow(nil, %d)'s buffer kept its bytes through Reset", lendSizes[i])
			}
		}
	}
}
