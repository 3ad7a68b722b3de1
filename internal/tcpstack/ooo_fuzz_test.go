package tcpstack

import (
	"bytes"
	"math/rand"
	"testing"

	"intango/internal/netem"
	"intango/internal/packet"
)

// refReceiver is the receive path Conn had before its out-of-order
// bytes moved into one per-connection buffer: ingestData copies each
// out-of-order segment into a slice of its own, enqueue prepends a
// last-wins segment by reallocating the queue, and drain delivers into
// a plain slice. FuzzOOOReassembly holds the connection to it.
type refReceiver struct {
	rcvNxt   packet.Seq
	rcvWnd   int
	lastWins bool
	ooo      []segment
	finAt    bool
	finSeq   packet.Seq
	recv     []byte
}

// ingest runs one accepted segment through the reference and reports
// whether the connection answers it with an ACK.
func (r *refReceiver) ingest(seq packet.Seq, payload []byte, fin bool) bool {
	segLen := len(payload)
	if segLen == 0 && !fin {
		return false
	}
	end := seq.Add(segLen)
	if end.AtOrBefore(r.rcvNxt) && !(fin && end == r.rcvNxt) {
		return true
	}
	if seq.AtOrAfter(r.rcvNxt.Add(r.rcvWnd)) {
		return true
	}
	switch {
	case segLen == 0:
	case seq.AtOrBefore(r.rcvNxt) && end.After(r.rcvNxt) && len(r.ooo) == 0:
		r.deliver(payload[r.rcvNxt.Diff(seq):])
	default:
		seg := segment{seq: seq, data: append([]byte(nil), payload...)}
		if r.lastWins {
			r.ooo = append([]segment{seg}, r.ooo...)
		} else {
			r.ooo = append(r.ooo, seg)
		}
	}
	if fin {
		r.finAt = true
		r.finSeq = end
	}
	for progress := true; progress; {
		progress = false
		for i, s := range r.ooo {
			if s.seq.Add(len(s.data)).AtOrBefore(r.rcvNxt) {
				r.ooo = append(r.ooo[:i], r.ooo[i+1:]...)
				progress = true
				break
			}
			if s.seq.AtOrBefore(r.rcvNxt) {
				r.ooo = append(r.ooo[:i], r.ooo[i+1:]...)
				r.deliver(s.data[r.rcvNxt.Diff(s.seq):])
				progress = true
				break
			}
		}
	}
	if r.finAt && r.finSeq == r.rcvNxt {
		r.finAt = false
		r.rcvNxt = r.rcvNxt.Add(1)
	}
	return true
}

func (r *refReceiver) deliver(chunk []byte) {
	r.recv = append(r.recv, chunk...)
	r.rcvNxt = r.rcvNxt.Add(len(chunk))
}

// oooISS is the client's initial sequence number in FuzzOOOReassembly:
// 1,024 bytes below the wrap, so the segments cross it. A segment
// starts up to oooBehind bytes before the first data byte and less
// than oooSpan-oooBehind after it.
const (
	oooISS    packet.Seq = 0xfffffc00
	oooBehind            = 200
	oooSpan              = 2400
)

// acceptedConn returns a server stack on a simulator that lends (it
// was reset, as a recycled trial's is) and the connection it accepted
// from a hand-delivered handshake. Every segment the stack sends goes
// to sent, which must release it.
func acceptedConn(t testing.TB, overlap packet.OverlapPolicy, sent func(*packet.Packet)) (*Stack, *Conn) {
	sim := netem.NewSimulator(1)
	sim.Reset(1)
	prof := Linux44()
	prof.SegmentOverlap = overlap
	srv := NewStack(srvAddr, prof, sim)
	srv.Pool = packet.NewPool()
	var conn *Conn
	var synAck packet.Seq
	srv.Send = func(p *packet.Packet) {
		synAck = p.TCP.Seq
		p.Release()
	}
	srv.Listen(80, func(c *Conn) { conn = c })
	srv.Deliver(packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagSYN, oooISS, 0, nil))
	srv.Deliver(packet.NewTCP(cliAddr, 40000, srvAddr, 80, packet.FlagACK, oooISS.Add(1), synAck.Add(1), nil))
	if conn == nil || conn.State() != Established {
		t.Fatalf("the hand-delivered handshake left %v", conn)
	}
	srv.Send = sent
	return srv, conn
}

// FuzzOOOReassembly feeds a connection a set of data segments — out of
// order, overlapping, duplicated, with gaps, some past the window and
// some carrying a FIN — under each overlap policy, and holds what it
// delivers and every ACK it sends to refReceiver. Each segment is four
// input bytes: its offset from the first data byte (two), its length
// and a flags byte (bit 7: FIN; bit 6: past the window; the rest seed
// its bytes, so overlapping copies differ).
func FuzzOOOReassembly(f *testing.F) {
	seg := func(off, n int, flags byte) []byte {
		v := off + oooBehind
		return []byte{byte(v >> 8), byte(v), byte(n), flags}
	}
	cat := func(segs ...[]byte) []byte { return bytes.Join(segs, nil) }
	for _, s := range [][]byte{
		// In order, then a FIN.
		cat(seg(0, 100, 1), seg(100, 100, 2), seg(200, 0, 0x80)),
		// A gap filled last, a duplicate, and the FIN early.
		cat(seg(300, 100, 1), seg(100, 200, 2), seg(300, 100, 3), seg(400, 10, 0x84), seg(0, 100, 5)),
		// Overlapping copies at the edge and inside the queue.
		cat(seg(50, 100, 1), seg(60, 120, 2), seg(40, 30, 3), seg(0, 55, 4), seg(170, 40, 5)),
		// Old data, data past the window, and a segment straddling the edge.
		cat(seg(0, 80, 1), seg(10, 20, 2), seg(100, 50, 0x43), seg(70, 90, 4)),
		// A pure ACK and a FIN with data behind a hole.
		cat(seg(20, 0, 0), seg(90, 30, 0x81), seg(0, 90, 2)),
	} {
		f.Add(s)
	}
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		b := make([]byte, 4*(4+rng.Intn(28)))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		for _, pol := range []struct {
			name    string
			overlap packet.OverlapPolicy
		}{{"first-wins", packet.FirstWins}, {"last-wins", packet.LastWins}} {
			policy := pol.name
			var acks []packet.Seq
			srv, c := acceptedConn(t, pol.overlap, func(p *packet.Packet) {
				if p.TCP.Flags != packet.FlagACK {
					t.Fatalf("%s: sent %s, want only ACKs", policy, packet.FlagString(p.TCP.Flags))
				}
				acks = append(acks, p.TCP.Ack)
				p.Release()
			})
			ref := &refReceiver{rcvNxt: c.rcvNxt, rcvWnd: c.rcvWnd, lastWins: pol.overlap == packet.LastWins}
			first := oooISS.Add(1)
			for k, p := 0, in; len(p) >= 4; k, p = k+1, p[4:] {
				off := int(uint16(p[0])<<8|uint16(p[1]))%oooSpan - oooBehind
				if p[3]&0x40 != 0 {
					off += c.rcvWnd
				}
				payload := make([]byte, int(p[2]))
				for i := range payload {
					payload[i] = p[3]&0x3f + byte(k*7+i)
				}
				flags := uint8(packet.FlagACK)
				if p[3]&0x80 != 0 {
					flags |= packet.FlagFIN
				}
				seq := first.Add(off)
				acks = acks[:0]
				srv.Deliver(packet.NewTCP(cliAddr, 40000, srvAddr, 80, flags, seq, c.sndNxt, payload))
				wantAck := ref.ingest(seq, payload, flags&packet.FlagFIN != 0)
				got := c.Received()
				switch {
				case wantAck && (len(acks) != 1 || acks[0] != ref.rcvNxt):
					t.Fatalf("%s: segment %d (off %d, %d bytes, flags %s) drew ACKs %v, want one of %d",
						policy, k, off, len(payload), packet.FlagString(flags), acks, ref.rcvNxt)
				case !wantAck && len(acks) != 0:
					t.Fatalf("%s: segment %d drew ACKs %v, want none", policy, k, acks)
				case !bytes.Equal(got, ref.recv):
					at := 0
					for at < min(len(got), len(ref.recv)) && got[at] == ref.recv[at] {
						at++
					}
					t.Fatalf("%s: after segment %d received %d bytes, want %d; first difference at byte %d",
						policy, k, len(got), len(ref.recv), at)
				}
			}
		}
	})
}
