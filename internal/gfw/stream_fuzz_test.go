package gfw

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"intango/internal/dpi"
	"intango/internal/netem"
	"intango/internal/packet"
)

// refStream is the per-byte reassembler stream replaced: every byte
// of the window is buffered from the base with a coverage flag, and
// the scanned prefix is always kept. It is the reference model
// FuzzStreamInsert checks stream against.
type refStream struct {
	base    packet.Seq
	started bool
	buf     []byte
	cover   []bool
	scanned int
	window  int
	scanner *dpi.StreamScanner
}

func (s *refStream) rebase(seq packet.Seq) {
	s.base = seq
	s.started = true
	s.buf = s.buf[:0]
	s.cover = s.cover[:0]
	s.scanned = 0
	s.scanner.Reset()
}

func (s *refStream) insert(seq packet.Seq, data []byte, lastWins bool) []dpi.Match {
	if len(data) == 0 || !s.started {
		return nil
	}
	if d := seq.Diff(s.base); d < 0 || int(d)+len(data) > s.window {
		return nil
	}
	off := int(seq.Diff(s.base))
	end := off + len(data)
	if end > len(s.buf) {
		s.buf = append(s.buf, make([]byte, end-len(s.buf))...)
		s.cover = append(s.cover, make([]bool, end-len(s.cover))...)
	}
	for i, b := range data {
		at := off + i
		if at < s.scanned {
			continue
		}
		if s.cover[at] && !lastWins {
			continue
		}
		s.buf[at] = b
		s.cover[at] = true
	}
	newEnd := s.scanned
	for newEnd < len(s.cover) && s.cover[newEnd] {
		newEnd++
	}
	if newEnd == s.scanned {
		return nil
	}
	chunk := s.buf[s.scanned:newEnd]
	s.scanned = newEnd
	return s.scanner.Feed(chunk)
}

func (s *refStream) contiguous() []byte { return s.buf[:s.scanned] }

func (s *refStream) nextSeq() packet.Seq { return s.base.Add(s.scanned) }

// streamFuzzText is the genuine stream a fuzzed insert copies from at
// its own offsets (so keywords form across segments); junk inserts copy
// from streamFuzzJunk instead, which the overlap policy must resolve.
const (
	streamFuzzText = "GET /?q=ultrasurf HTTP/1.1\r\nHost: falun.example\r\n\r\n"
	streamFuzzJunk = "ultraXXXfalunYYYsurfZZZ"
)

// FuzzStreamInsert drives stream and the per-byte refStream through
// the same operations — inserts in order, overlapping, out of order and
// past the window, rebases to arbitrary (wrapping) sequence numbers,
// and prefix drops at random points, for a flow the classifiers named
// or one they can no longer name, as classification does — under
// either overlap policy, and requires identical matches, nextSeq and,
// while the prefix is kept, contiguous after every step.
//
// The input is read as: one policy byte (odd selects last-wins), then
// 4-byte operations. An operation's first byte picks its kind; an
// insert reads a signed offset from the scanned end (bytes 1–2) and a
// length and data source (byte 3), a rebase a sequence number (bytes
// 1–3), a prefix drop whether the flow was named (byte 1, odd).
func FuzzStreamInsert(f *testing.F) {
	op := func(kind byte, args ...byte) []byte { return append([]byte{kind}, args...) }
	seeds := [][]byte{
		{0},
		// In order: the keyword split across two segments, then more.
		append(append([]byte{0}, op(2, 0, 0, 10)...), op(2, 0, 0, 40)...),
		// Out of order, then the gap: both policies.
		append(append([]byte{1}, op(2, 0, 20, 30)...), op(2, 0, 0, 20)...),
		append(append([]byte{0}, op(2, 0, 20, 30)...), op(2, 0, 0, 20)...),
		// Overlapping junk ahead of the real bytes, then the prefix:
		// both policies, and real bytes overlapping the junk's edge.
		append(append(append([]byte{1}, op(2, 0, 8, 0x80|12)...), op(2, 0, 8, 12)...), op(2, 0, 0, 8)...),
		append(append(append([]byte{0}, op(2, 0, 8, 0x80|12)...), op(2, 0, 8, 12)...), op(2, 0, 0, 8)...),
		append(append(append([]byte{0}, op(2, 0, 8, 0x80|12)...), op(2, 0, 4, 30)...), op(2, 0, 0, 6)...),
		// Past the window, behind the base, and a wrap-around rebase.
		append(append(append([]byte{0}, op(2, 0x7f, 0xff, 60)...), op(2, 0xff, 0x00, 60)...), op(0, 0xff, 0xff, 0xf0)...),
		// Classified mid-stream, then a rebase and out-of-order data.
		append(append(append(append([]byte{1}, op(2, 0, 0, 5)...), op(1, 0, 0, 0)...), op(0, 1, 2, 3)...), op(2, 0, 30, 9)...),
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		b := make([]byte, 1+4*(8+rng.Intn(24)))
		rng.Read(b)
		seeds = append(seeds, b)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	m := dpi.NewMatcher([]string{"ultrasurf", "falun"})
	const window = 300
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		lastWins := in[0]&1 == 1
		// A reset simulator lends the stream its buffers, as a
		// recycled trial's does.
		sim := netem.NewSimulator(1)
		sim.Reset(1)
		got := newStream(sim, window, m.NewStreamScanner(), true)
		want := &refStream{window: window, scanner: m.NewStreamScanner()}
		got.rebase(1000)
		want.rebase(1000)
		for step, p := 0, in[1:]; len(p) >= 4; step, p = step+1, p[4:] {
			var gm, wm []dpi.Match
			switch p[0] % 4 {
			case 0:
				seq := packet.Seq(uint32(p[1])<<24 | uint32(p[2])<<16 | uint32(p[3])<<8)
				got.rebase(seq)
				want.rebase(seq)
			case 1:
				got.dropPrefix(p[1]&1 == 1)
			default:
				delta := int(int16(uint16(p[1])<<8|uint16(p[2]))) % (window + 50)
				n := int(p[3] & 0x7f)
				src := streamFuzzText
				if p[3]&0x80 != 0 {
					src = streamFuzzJunk
				}
				seq := want.nextSeq().Add(delta)
				data := make([]byte, n)
				for i := range data {
					at := int(seq.Diff(want.base)) + i
					data[i] = src[(at%len(src)+len(src))%len(src)]
				}
				gm = got.insert(seq, data, lastWins)
				wm = want.insert(seq, data, lastWins)
			}
			if !reflect.DeepEqual(gm, wm) {
				t.Fatalf("step %d: matches %v, per-byte model %v", step, gm, wm)
			}
			if got.nextSeq() != want.nextSeq() {
				t.Fatalf("step %d: nextSeq %d, per-byte model %d", step, got.nextSeq(), want.nextSeq())
			}
			if got.keep && !bytes.Equal(got.contiguous(), want.contiguous()) {
				t.Fatalf("step %d: contiguous %q, per-byte model %q", step, got.contiguous(), want.contiguous())
			}
		}
	})
}
