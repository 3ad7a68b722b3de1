package packet

import (
	"bytes"
	"math/rand"
	"testing"
)

// refAssemble is the per-byte assembly fragSeries.assemble replaced:
// pieces are applied in arrival order with a written flag per byte,
// and a byte left unwritten is a gap. It is the reference model
// FuzzFragmentAssemble checks complete and assemble against.
func refAssemble(s *fragSeries, policy OverlapPolicy) ([]byte, bool) {
	buf := make([]byte, s.totalLen)
	written := make([]bool, s.totalLen)
	for _, pc := range s.pieces {
		for i, b := range s.data(pc) {
			at := pc.off + i
			if at >= len(buf) {
				break
			}
			if policy == LastWins || !written[at] {
				buf[at] = b
				written[at] = true
			}
		}
	}
	for _, w := range written {
		if !w {
			return nil, false
		}
	}
	return buf, true
}

// FuzzFragmentAssemble builds a fragment series from the input — each
// 3-byte group is one piece: offset (in 8-byte units, as on the wire),
// length and a last flag, with the piece's bytes derived from its
// arrival index so overlaps differ, copied into the series buffer as
// AddAt copies them — and requires complete and
// assemble to agree with the per-byte model under both overlap
// policies: the same completeness verdict and, when complete, the same
// bytes appended after what the destination already holds.
func FuzzFragmentAssemble(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 16, 0, 2, 8, 1})           // two pieces, in order
	f.Add([]byte{2, 8, 1, 0, 16, 0})           // reversed
	f.Add([]byte{0, 16, 0, 1, 16, 0, 3, 8, 1}) // overlap, then the tail
	f.Add([]byte{0, 8, 0, 2, 8, 1})            // a gap
	f.Add([]byte{0, 40, 1, 0, 8, 1})           // a shorter second last piece
	f.Add([]byte{0, 0, 1})                     // an empty datagram
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		b := make([]byte, 3*(1+rng.Intn(12)))
		for j := 0; j < len(b); j += 3 {
			b[j], b[j+1], b[j+2] = byte(rng.Intn(8)), byte(rng.Intn(40)), byte(rng.Intn(5)/4)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		s := &fragSeries{}
		for i := 0; i+3 <= len(in); i += 3 {
			start := len(s.buf)
			for j := 0; j < int(in[i+1]); j++ {
				s.buf = append(s.buf, byte(i/3*31+j))
			}
			s.add(int(in[i])*8, start, in[i+2]&1 == 1)
		}
		if !s.haveLast {
			return // AddAt assembles only once the last piece is in
		}
		gotOK := (&Reassembler{}).complete(s)
		for _, policy := range []OverlapPolicy{FirstWins, LastWins} {
			want, wantOK := refAssemble(s, policy)
			if gotOK != wantOK {
				t.Fatalf("complete = %v, per-byte model %v", gotOK, wantOK)
			}
			if got := s.assemble([]byte("hdr"), policy); gotOK && (string(got[:3]) != "hdr" || !bytes.Equal(got[3:], want)) {
				t.Fatalf("policy %d: assemble = %x, per-byte model %x", policy, got, want)
			}
		}
	})
}

// sum16 is the 16-bit word loop regionSum replaced: the plain RFC 1071
// sum of the region's big-endian words, an odd byte padded high.
func sum16(data []byte) uint32 {
	var sum uint32
	i := 0
	for ; i+1 < len(data); i += 2 {
		sum += uint32(data[i])<<8 | uint32(data[i+1])
	}
	if i < len(data) {
		sum += uint32(data[i]) << 8
	}
	return sum
}

// TestRegionSumMatches16BitLoop pins the word-summing regionSum and
// Checksum to the 16-bit loop: regionSum must be congruent to the
// 16-bit sum modulo 0xffff, fit in 16 bits and be zero exactly when
// that sum is, and Checksum must fold to the same value. All-zero
// input is the case that tells 0 from 0xffff; all-0xff input sums to a
// nonzero multiple of 0xffff.
func TestRegionSumMatches16BitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var inputs [][]byte
	for n := 0; n <= 70; n++ {
		zero := make([]byte, n)
		ones := bytes.Repeat([]byte{0xff}, n)
		random := make([]byte, n)
		rng.Read(random)
		inputs = append(inputs, zero, ones, random)
	}
	for _, n := range []int{1499, 1500, 65535, 65536} {
		random := make([]byte, n)
		rng.Read(random)
		inputs = append(inputs, random, make([]byte, n), bytes.Repeat([]byte{0xff}, n))
	}
	for _, data := range inputs {
		got, want := regionSum(data), sum16(data)
		if got > 0xffff || got%0xffff != want%0xffff || (got == 0) != (want == 0) {
			t.Fatalf("len %d: regionSum = %#x, 16-bit sum = %#x", len(data), got, want)
		}
		for _, initial := range []uint32{0, 1, 0xfffe, 0x2fffd} {
			if c, w := Checksum(data, initial), foldChecksum(initial+want); c != w {
				t.Fatalf("len %d, initial %#x: Checksum = %#x, 16-bit loop = %#x", len(data), initial, c, w)
			}
		}
	}
}
