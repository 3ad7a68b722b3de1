package tcpstack

import (
	"bytes"
	"testing"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
)

// TestRetransmitAfterLaterWrites pins the retransmission queue's
// aliasing invariant: a queued segment references the send buffer's
// bytes instead of a copy, so a later Write into the same backing array
// must leave what a retransmission of earlier data carries unchanged.
func TestRetransmitAfterLaterWrites(t *testing.T) {
	sim, p, cli, srv := pair(t, Linux44(), Linux44())
	c, sc := establish(t, sim, cli, srv)

	// Record every data segment reaching the server's side; lose the
	// first one.
	type seg struct {
		seq     packet.Seq
		payload string
	}
	var seen []seg
	p.Server = netem.EndpointFunc(func(pkt *packet.Packet) {
		if pkt.TCP != nil && len(pkt.Payload) > 0 {
			seen = append(seen, seg{pkt.TCP.Seq, string(pkt.Payload)})
			if len(seen) == 1 {
				return
			}
		}
		srv.Deliver(pkt)
	})

	a, b := []byte("write-A: sent first, lost"), []byte("write-B: lands behind A")
	c.sendBuf = make([]byte, 0, 256) // room for B behind A
	seqA := c.SndNxt()
	c.Write(a)
	if cap(c.sendBuf) < len(b) {
		t.Fatalf("send buffer has %d bytes of room, want B to share A's backing array", cap(c.sendBuf))
	}
	c.Write(b)
	sim.RunFor(2 * time.Second) // past the RTO

	var copiesOfA []string
	for _, s := range seen {
		if s.seq == seqA {
			copiesOfA = append(copiesOfA, s.payload)
		}
	}
	if len(copiesOfA) < 2 {
		t.Fatalf("write A went out %d times, want a loss and a retransmission", len(copiesOfA))
	}
	for i, got := range copiesOfA {
		if got != string(a) {
			t.Fatalf("transmission %d of A carried %q, want %q", i, got, a)
		}
	}
	if got := string(sc.Received()); got != string(a)+string(b) {
		t.Fatalf("server received %q", got)
	}
}

// TestOnDataIsTailOfReceived checks the OnData contract over a lossy
// bulk transfer (in-order deliveries, out-of-order queueing and
// retransmitted overlaps alike): every chunk is a view of the newly
// delivered tail of Received(), and the chunks add up to the stream.
func TestOnDataIsTailOfReceived(t *testing.T) {
	sim, _, cli, srv := lossyPair(t, Linux44(), Linux44(), 0.2)
	var sc *Conn
	var chunks, bad int
	var joined []byte
	srv.Listen(80, func(c *Conn) {
		sc = c
		c.OnData = func(data []byte) {
			chunks++
			rcv := c.Received()
			tail := rcv[len(rcv)-len(data):]
			if len(data) == 0 || !bytes.Equal(data, tail) || &data[0] != &tail[0] {
				bad++
			}
			joined = append(joined, data...)
		}
	})
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(10 * time.Second)
	if c.State() != Established {
		t.Fatalf("client state = %v", c.State())
	}
	want := make([]byte, 40<<10)
	for i := range want {
		want[i] = byte(i * 7)
	}
	c.Write(want)
	sim.RunFor(2 * time.Minute)

	if sc == nil || !bytes.Equal(sc.Received(), want) {
		t.Fatal("server did not receive the whole upload intact")
	}
	if bad > 0 {
		t.Fatalf("%d of %d OnData chunks were not a view of Received()'s new tail", bad, chunks)
	}
	if !bytes.Equal(joined, want) {
		t.Fatal("OnData chunks do not add up to the received stream")
	}
}
