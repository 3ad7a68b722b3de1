package device

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"intango/internal/packet"
)

func mkTCP(payload string) *packet.Packet {
	return packet.NewTCP(
		packet.AddrFrom4(10, 0, 0, 1), 40000,
		packet.AddrFrom4(203, 0, 113, 80), 80,
		packet.FlagPSH|packet.FlagACK, packet.Seq(1000), packet.Seq(2000),
		[]byte(payload),
	)
}

// TestPipeRoundTripFidelity pushes TCP, UDP and ICMP datagrams through
// a pipe and checks the parsed far-side packets field-for-field: the
// pipe must behave like a wire, not a pointer queue.
func TestPipeRoundTripFidelity(t *testing.T) {
	a, b := NewPipe(nil, 0)
	defer a.Close()

	want := mkTCP("GET /search?q=ultrasurf HTTP/1.1\r\n\r\n")
	want.TCP.Window = 512
	want.IP.TTL = 7
	want.Finalize()
	if err := a.WritePacket(want); err != nil {
		t.Fatalf("WritePacket: %v", err)
	}
	got, err := b.ReadPacket()
	if err != nil {
		t.Fatalf("ReadPacket: %v", err)
	}
	if got.TCP == nil {
		t.Fatalf("parsed packet lost its TCP header: %v", got)
	}
	if got.Tuple() != want.Tuple() {
		t.Errorf("tuple: got %v want %v", got.Tuple(), want.Tuple())
	}
	if got.TCP.Seq != want.TCP.Seq || got.TCP.Ack != want.TCP.Ack ||
		got.TCP.Flags != want.TCP.Flags || got.TCP.Window != want.TCP.Window {
		t.Errorf("TCP header mismatch: got %+v want %+v", got.TCP, want.TCP)
	}
	if got.IP.TTL != want.IP.TTL {
		t.Errorf("TTL: got %d want %d", got.IP.TTL, want.IP.TTL)
	}
	if string(got.Payload) != string(want.Payload) {
		t.Errorf("payload: got %q want %q", got.Payload, want.Payload)
	}
	if !got.TCP.VerifyChecksum(got.IP.Src, got.IP.Dst, got.Payload) {
		t.Errorf("checksum did not survive the wire")
	}

	// A deliberately corrupted checksum must also survive verbatim —
	// the device must not "helpfully" fix insertion packets.
	bad := mkTCP("x")
	bad.TCP.Checksum ^= 0xffff
	if err := a.WritePacket(bad); err != nil {
		t.Fatalf("WritePacket(bad): %v", err)
	}
	got, err = b.ReadPacket()
	if err != nil {
		t.Fatalf("ReadPacket(bad): %v", err)
	}
	if got.TCP.VerifyChecksum(got.IP.Src, got.IP.Dst, got.Payload) {
		t.Errorf("corrupted checksum was repaired in transit")
	}

	udp := packet.NewUDP(packet.AddrFrom4(10, 0, 0, 1), 5353, packet.AddrFrom4(8, 8, 8, 8), 53, []byte("query"))
	if err := a.WritePacket(udp); err != nil {
		t.Fatalf("WritePacket(udp): %v", err)
	}
	got, err = b.ReadPacket()
	if err != nil {
		t.Fatalf("ReadPacket(udp): %v", err)
	}
	if got.UDP == nil || got.UDP.DstPort != 53 || string(got.Payload) != "query" {
		t.Errorf("UDP round trip: got %v", got)
	}
}

// TestPipeHalfClose: after one end closes, the peer drains what was
// already in flight, then reads fail; writes fail on both sides.
func TestPipeHalfClose(t *testing.T) {
	a, b := NewPipe(nil, 0)
	for i := 0; i < 3; i++ {
		if err := a.WritePacket(mkTCP("buffered")); err != nil {
			t.Fatalf("WritePacket: %v", err)
		}
	}
	a.Close()
	for i := 0; i < 3; i++ {
		if _, err := b.ReadPacket(); err != nil {
			t.Fatalf("drain read %d: %v", i, err)
		}
	}
	if _, err := b.ReadPacket(); !errors.Is(err, ErrClosed) {
		t.Errorf("post-drain read: got %v want ErrClosed", err)
	}
	if err := b.WritePacket(mkTCP("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write to closed peer: got %v want ErrClosed", err)
	}
	if err := a.WritePacket(mkTCP("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write on closed end: got %v want ErrClosed", err)
	}
	if _, err := a.ReadPacket(); !errors.Is(err, ErrClosed) {
		t.Errorf("read on closed end: got %v want ErrClosed", err)
	}
}

// TestPipeCloseUnblocksReader: a reader blocked in ReadPacket must
// wake with ErrClosed when either its own end or the peer closes.
func TestPipeCloseUnblocksReader(t *testing.T) {
	for _, who := range []string{"own", "peer"} {
		a, b := NewPipe(nil, 0)
		done := make(chan error, 1)
		go func() {
			_, err := b.ReadPacket()
			done <- err
		}()
		time.Sleep(10 * time.Millisecond) // let the reader block
		if who == "own" {
			b.Close()
		} else {
			a.Close()
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrClosed) {
				t.Errorf("close=%s: got %v want ErrClosed", who, err)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("close=%s: reader still blocked after close", who)
		}
	}
}

// TestPipeTailDrop: a bounded pipe drops overflow instead of blocking
// the writer.
func TestPipeTailDrop(t *testing.T) {
	a, b := NewPipe(nil, 2)
	for i := 0; i < 5; i++ {
		if err := a.WritePacket(mkTCP("x")); err != nil {
			t.Fatalf("WritePacket %d: %v", i, err)
		}
	}
	if got := b.Dropped(); got != 3 {
		t.Errorf("dropped: got %d want 3", got)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.ReadPacket(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
}

// TestPipeOrderAcrossReuse interleaves writes and reads, keeping at
// most three datagrams unread, so the queue drains, refills its array
// and moves its unread datagrams to the front: every datagram comes out
// once and in order, and the capacity bounds the unread ones only.
func TestPipeOrderAcrossReuse(t *testing.T) {
	a, b := NewPipe(nil, 3)
	next, want := 0, 0
	for i := 0; i < 64; i++ {
		for w := min(1+i%3, 3-(next-want)); w > 0; w-- {
			a.WritePacket(mkTCP(strconv.Itoa(next)))
			next++
		}
		for r := min(1+i*7%4, next-want); r > 0; r-- {
			pkt, err := b.ReadPacket()
			if err != nil || string(pkt.Payload) != strconv.Itoa(want) {
				t.Fatalf("read: %v, %v; want payload %d", pkt, err, want)
			}
			want++
		}
	}
	if got := b.Dropped(); got != 0 {
		t.Errorf("dropped %d with at most 3 unread", got)
	}
}
