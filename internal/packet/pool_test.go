package packet

import (
	"bytes"
	"testing"
)

// skipUnderChecked skips a test that measures recycling by
// construction: the checked build never recycles a released packet.
func skipUnderChecked(t *testing.T) {
	t.Helper()
	if Checked {
		t.Skip("the checked build never recycles a released packet")
	}
}

func TestPoolRecyclesPackets(t *testing.T) {
	skipUnderChecked(t)
	pl := NewPool()
	p := pl.Get()
	if !p.Pooled() {
		t.Fatal("pooled packet not marked Pooled")
	}
	// sync.Pool may drop a Put on the floor (it does so randomly under
	// the race detector), so drive the Get/Release cycle until a
	// released packet comes back instead of asserting on one round.
	var recycled bool
	for i := 0; i < 100 && !recycled; i++ {
		p.Release()
		q := pl.Get()
		recycled = q == p
		p = q
	}
	if !recycled {
		t.Fatal("Get never recycled a released packet")
	}
	st := pl.Stats()
	if st.Gets != st.Puts+1 {
		t.Fatalf("stats = %+v, want gets = puts+1", st)
	}
	if st.Recycled() < 1 {
		t.Fatalf("recycled = %d, want >= 1", st.Recycled())
	}
}

// TestReleasePoisonsUnderChecked: the checked build poisons what a
// released packet held — addresses, sequence numbers, flags, payload
// and option bytes — and never hands the packet out again.
func TestReleasePoisonsUnderChecked(t *testing.T) {
	if !Checked {
		t.Skip("only the checked build poisons released packets")
	}
	pl := NewPool()
	p := pl.NewTCP(AddrFrom4(10, 0, 0, 1), 1, AddrFrom4(203, 0, 113, 80), 2, FlagACK, 7, 9, []byte("payload"))
	p.AddTimestampOption(1, 2)
	payload, opt := p.Payload, p.TCP.Options[0].Data
	p.Release()
	junk := Addr{poisonByte, poisonByte, poisonByte, poisonByte}
	switch {
	case p.IP.Src != junk || p.IP.Dst != junk:
		t.Errorf("addresses %v > %v survived the release", p.IP.Src, p.IP.Dst)
	case p.TCP.Seq == 7 || p.TCP.Ack == 9 || p.TCP.Flags == FlagACK:
		t.Errorf("seq %d, ack %d, flags %s survived the release", p.TCP.Seq, p.TCP.Ack, FlagString(p.TCP.Flags))
	case !bytes.Equal(payload, bytes.Repeat([]byte{poisonByte}, len(payload))):
		t.Errorf("payload %q survived the release", payload)
	case !bytes.Equal(opt, bytes.Repeat([]byte{poisonByte}, len(opt))):
		t.Errorf("option bytes %x survived the release", opt)
	}
	for i := 0; i < 10; i++ {
		if pl.Get() == p {
			t.Fatal("a released packet was handed out again")
		}
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	pl := NewPool()
	p := pl.Get()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("double Release did not panic")
		}
	}()
	p.Release()
}

func TestNilPoolFallsBackToHeap(t *testing.T) {
	var pl *Pool
	p := pl.Get()
	if p == nil || p.Pooled() {
		t.Fatalf("nil-pool Get: %v pooled=%v", p, p.Pooled())
	}
	p.Release() // no-op, must not panic
	if st := pl.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil-pool stats = %+v", st)
	}
}

// TestPooledCraftingMatchesHeap pins the pooled constructors to their
// heap equivalents byte-for-byte on the wire, across reuse.
func TestPooledCraftingMatchesHeap(t *testing.T) {
	pl := NewPool()
	src, dst := AddrFrom4(10, 0, 0, 1), AddrFrom4(203, 0, 113, 80)
	for round := 0; round < 3; round++ {
		heapTCP := NewTCP(src, 4000, dst, 80, FlagPSH|FlagACK, 1000, 2000, []byte("hello"))
		poolTCP := pl.NewTCP(src, 4000, dst, 80, FlagPSH|FlagACK, 1000, 2000, []byte("hello"))
		if !bytes.Equal(heapTCP.Serialize(SerializeOptions{}), poolTCP.Serialize(SerializeOptions{})) {
			t.Fatalf("round %d: pooled TCP differs from heap TCP on the wire", round)
		}

		heapUDP := NewUDP(src, 53, dst, 53, []byte("query"))
		poolUDP := pl.NewUDP(src, 53, dst, 53, []byte("query"))
		if !bytes.Equal(heapUDP.Serialize(SerializeOptions{}), poolUDP.Serialize(SerializeOptions{})) {
			t.Fatalf("round %d: pooled UDP differs from heap UDP on the wire", round)
		}

		poolTCP.Release()
		poolUDP.Release()
	}
}

// TestPooledOptionsMatchHeap covers the scratch-backed option builders
// against the allocating TimestampOption/MSSOption path.
func TestPooledOptionsMatchHeap(t *testing.T) {
	pl := NewPool()
	src, dst := AddrFrom4(10, 0, 0, 1), AddrFrom4(203, 0, 113, 80)
	for round := 0; round < 3; round++ {
		h := &Packet{
			IP:  IPv4Header{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst},
			TCP: &TCPHeader{SrcPort: 1, DstPort: 2, Seq: 7, Flags: FlagSYN, Window: 100},
		}
		h.TCP.Options = append(h.TCP.Options, TimestampOption(111111, 222222), MSSOption(1460))
		h.Finalize()

		p := pl.Get()
		p.IP = IPv4Header{TTL: 64, Protocol: ProtoTCP, Src: src, Dst: dst}
		tcp := p.UseTCP()
		tcp.SrcPort, tcp.DstPort = 1, 2
		tcp.Seq, tcp.Flags, tcp.Window = 7, FlagSYN, 100
		p.AddTimestampOption(111111, 222222)
		p.AddMSSOption(1460)
		p.Finalize()

		if !bytes.Equal(h.Serialize(SerializeOptions{}), p.Serialize(SerializeOptions{})) {
			t.Fatalf("round %d: scratch-built options differ on the wire", round)
		}
		p.Release()
	}
}

// TestPooledCloneIsDeep verifies a pooled clone shares no storage with
// its source.
func TestPooledCloneIsDeep(t *testing.T) {
	pl := NewPool()
	src, dst := AddrFrom4(10, 0, 0, 1), AddrFrom4(203, 0, 113, 80)
	orig := NewTCP(src, 1, dst, 2, FlagPSH|FlagACK, 10, 20, []byte("payload"))
	orig.TCP.Options = append(orig.TCP.Options, TimestampOption(1, 2))
	orig.IP.Options = []byte{7, 7}
	orig.Finalize()

	c := pl.Clone(orig)
	want := orig.Serialize(SerializeOptions{})
	if !bytes.Equal(want, c.Serialize(SerializeOptions{})) {
		t.Fatal("clone differs from source on the wire")
	}
	// Mutating the original must not leak into the clone.
	orig.Payload[0] = 'X'
	orig.IP.Options[0] = 9
	orig.TCP.Options[0].Data[0] = 9
	if bytes.Equal(orig.Serialize(SerializeOptions{}), c.Serialize(SerializeOptions{})) {
		t.Fatal("clone aliases the source's buffers")
	}
	if !bytes.Equal(want, c.Serialize(SerializeOptions{})) {
		t.Fatal("clone changed when the source was mutated")
	}
	c.Release()
}

// TestPooledTimeExceededMatchesHeap pins Pool.TimeExceededPacket to the
// heap TimeExceeded construction byte-for-byte, including the side
// effect both share of finalizing the quoted original.
func TestPooledTimeExceededMatchesHeap(t *testing.T) {
	pl := NewPool()
	src, dst := AddrFrom4(10, 0, 0, 1), AddrFrom4(203, 0, 113, 80)
	router := AddrFrom4(10, 254, 0, 3)
	for _, mk := range []func() *Packet{
		func() *Packet { return NewTCP(src, 4000, dst, 80, FlagSYN, 42, 0, nil) },
		func() *Packet { return NewUDP(src, 53, dst, 53, []byte("q")) },
	} {
		orig := mk()
		orig.IP.TTL = 1
		orig.Finalize()
		heapReply := (&Packet{
			IP:   IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: router, Dst: orig.IP.Src},
			ICMP: TimeExceeded(orig),
		}).Finalize()

		orig2 := mk()
		orig2.IP.TTL = 1
		orig2.Finalize()
		poolReply := pl.TimeExceededPacket(orig2, router)

		if !bytes.Equal(heapReply.Serialize(SerializeOptions{}), poolReply.Serialize(SerializeOptions{})) {
			t.Fatal("pooled Time-Exceeded differs from heap construction on the wire")
		}
		poolReply.Release()
	}
}

// TestRouterVerifyMark: a router's verified mark survives DecrementTTL,
// which keeps the checksum valid, and is trusted until cleared — so it
// must not carry over to a clone, a pool clone or a recycled packet.
func TestRouterVerifyMark(t *testing.T) {
	skipUnderChecked(t)
	pl := NewPool()
	src, dst := AddrFrom4(10, 0, 0, 1), AddrFrom4(203, 0, 113, 80)
	p := pl.NewTCP(src, 1, dst, 2, FlagACK, 1, 1, nil)
	if !p.RouterVerify() {
		t.Fatal("a finalized header failed verification")
	}
	p.IP.DecrementTTL()
	if !p.IP.VerifyChecksum() || !p.RouterVerify() {
		t.Fatal("DecrementTTL broke a verified header")
	}
	p.IP.TTL = 30 // rewritten without fixing the checksum
	if !p.RouterVerify() {
		t.Fatal("the mark was not trusted")
	}
	for name, c := range map[string]*Packet{"Clone": p.Clone(), "Pool.Clone": pl.Clone(p)} {
		if c.RouterVerify() {
			t.Errorf("%s carried the mark over a stale checksum", name)
		}
	}
	p.ClearVerified()
	if p.RouterVerify() {
		t.Error("a stale checksum passed after ClearVerified")
	}
	// sync.Pool may drop a Put, so cycle until a packet comes back.
	for i := 0; i < 100; i++ {
		p.hdrVerified = true
		p.Release()
		q := pl.Get()
		if q == p {
			if q.hdrVerified {
				t.Fatal("a recycled packet kept the mark")
			}
			return
		}
		p = q
	}
	t.Fatal("Get never recycled a released packet")
}
