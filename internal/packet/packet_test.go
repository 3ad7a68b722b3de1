package packet

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

var (
	addrA = AddrFrom4(10, 0, 0, 1)
	addrB = AddrFrom4(93, 184, 216, 34)
)

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example: 0x0001, 0xf203, 0xf4f5, 0xf6f7 -> sum 0xddf2,
	// checksum ^0xddf2 = 0x220d.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != 0x220d {
		t.Fatalf("Checksum = %#04x, want 0x220d", got)
	}
}

func TestChecksumOddLength(t *testing.T) {
	if got, want := Checksum([]byte{0xff}, 0), ^uint16(0xff00); got != want {
		t.Fatalf("Checksum odd = %#04x, want %#04x", got, want)
	}
}

func TestChecksumVerifiesToZero(t *testing.T) {
	// Appending the correct checksum makes the whole buffer sum to 0.
	f := func(data []byte) bool {
		ck := Checksum(data, 0)
		buf := append(append([]byte(nil), data...), byte(ck>>8), byte(ck))
		if len(data)%2 != 0 {
			// Odd-length data shifts the appended checksum's alignment;
			// the to-zero property only holds for even alignment.
			return true
		}
		return Checksum(buf, 0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqArithmetic(t *testing.T) {
	cases := []struct {
		s, t   Seq
		before bool
	}{
		{0, 1, true},
		{1, 0, false},
		{0xffffffff, 0, true}, // wraps
		{0, 0x7fffffff, true},
		{5, 5, false},
	}
	for _, c := range cases {
		if got := c.s.Before(c.t); got != c.before {
			t.Errorf("Seq(%d).Before(%d) = %v, want %v", c.s, c.t, got, c.before)
		}
	}
	if got := Seq(0xfffffff0).Add(0x20); got != 0x10 {
		t.Errorf("Add wrap = %d, want 16", got)
	}
	if d := Seq(10).Diff(20); d != -10 {
		t.Errorf("Diff = %d, want -10", d)
	}
}

func TestSeqAddDiffInverse(t *testing.T) {
	f := func(s uint32, n int16) bool {
		a := Seq(s)
		return a.Add(int(n)).Diff(a) == int32(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqInWindow(t *testing.T) {
	if !Seq(100).InWindow(100, 1) {
		t.Error("start of window should be in")
	}
	if Seq(100).InWindow(100, 0) {
		t.Error("zero window contains nothing")
	}
	if Seq(200).InWindow(100, 100) {
		t.Error("end of window is exclusive")
	}
	if !Seq(5).InWindow(0xfffffff0, 0x40) {
		t.Error("window spanning wrap should contain 5")
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4Header{
		TOS: 0x10, ID: 0x1234, Flags: IPFlagDontFragment, TTL: 61,
		Protocol: ProtoTCP, Src: addrA, Dst: addrB,
	}
	h.SetLengths(100)
	buf := h.SerializeTo(nil, 100, SerializeOptions{ComputeChecksums: true})
	var got IPv4Header
	n, err := got.DecodeFromBytes(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != IPv4HeaderLen {
		t.Fatalf("consumed %d, want %d", n, IPv4HeaderLen)
	}
	if got.Src != h.Src || got.Dst != h.Dst || got.TTL != 61 || got.ID != 0x1234 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.VerifyChecksum() {
		t.Fatal("checksum did not verify")
	}
	got.TTL--
	if got.VerifyChecksum() {
		t.Fatal("checksum verified after mutation")
	}
}

func TestIPv4Truncated(t *testing.T) {
	var h IPv4Header
	if _, err := h.DecodeFromBytes(make([]byte, 10)); err == nil {
		t.Fatal("want error for truncated header")
	}
}

func TestTCPRoundTripWithOptions(t *testing.T) {
	h := &TCPHeader{
		SrcPort: 40000, DstPort: 80, Seq: 1000, Ack: 2000,
		Flags: FlagPSH | FlagACK, Window: 512, Urgent: 7,
		Options: []TCPOption{
			MSSOption(1460),
			{Kind: OptNOP},
			TimestampOption(111, 222),
			MD5Option([16]byte{1, 2, 3}),
		},
	}
	payload := []byte("GET / HTTP/1.1\r\n")
	buf := h.SerializeTo(nil, addrA, addrB, payload, SerializeOptions{ComputeChecksums: true, FixLengths: true})
	var got TCPHeader
	n, err := got.decode(buf, &Packet{})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf[n:], payload) {
		t.Fatalf("payload mismatch: %q", buf[n:])
	}
	if got.SrcPort != 40000 || got.Seq != 1000 || got.Ack != 2000 || got.Urgent != 7 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.HasMD5() {
		t.Fatal("MD5 option lost")
	}
	tsval, tsecr, ok := got.Timestamps()
	if !ok || tsval != 111 || tsecr != 222 {
		t.Fatalf("timestamps = %d,%d,%v", tsval, tsecr, ok)
	}
	if !got.VerifyChecksum(addrA, addrB, payload) {
		t.Fatal("checksum did not verify")
	}
	got.Seq++
	if got.VerifyChecksum(addrA, addrB, payload) {
		t.Fatal("checksum verified after mutation")
	}
}

func TestTCPHeaderLenUnder20Rejected(t *testing.T) {
	h := &TCPHeader{SrcPort: 1, DstPort: 2, RawDataOffset: 3}
	buf := h.SerializeTo(nil, addrA, addrB, nil, SerializeOptions{ComputeChecksums: true})
	var got TCPHeader
	if _, err := got.decode(buf, &Packet{}); err == nil {
		t.Fatal("want error for data offset < 5")
	}
}

func TestTCPFlagString(t *testing.T) {
	if s := FlagString(FlagSYN | FlagACK); s != "SYN|ACK" {
		t.Fatalf("FlagString = %q", s)
	}
	if s := FlagString(0); s != "none" {
		t.Fatalf("FlagString(0) = %q", s)
	}
}

func TestTCPRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		h := &TCPHeader{
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Seq: Seq(rng.Uint32()), Ack: Seq(rng.Uint32()),
			Flags: uint8(rng.Intn(64)), Window: uint16(rng.Uint32()),
		}
		if rng.Intn(2) == 0 {
			h.Options = append(h.Options, TimestampOption(rng.Uint32(), rng.Uint32()))
		}
		payload := make([]byte, rng.Intn(64))
		rng.Read(payload)
		buf := h.SerializeTo(nil, addrA, addrB, payload, SerializeOptions{ComputeChecksums: true, FixLengths: true})
		var got TCPHeader
		n, err := got.decode(buf, &Packet{})
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		if got.Seq != h.Seq || got.Ack != h.Ack || got.Flags != h.Flags || got.Window != h.Window {
			t.Fatalf("iter %d: header mismatch", i)
		}
		if !bytes.Equal(buf[n:], payload) {
			t.Fatalf("iter %d: payload mismatch", i)
		}
		if !got.VerifyChecksum(addrA, addrB, payload) {
			t.Fatalf("iter %d: checksum", i)
		}
	}
}

func TestUDPRoundTrip(t *testing.T) {
	p := NewUDP(addrA, 5353, addrB, 53, []byte{0xab, 0xcd})
	wire := p.Serialize(SerializeOptions{ComputeChecksums: true, FixLengths: true})
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.UDP == nil || got.UDP.SrcPort != 5353 || got.UDP.DstPort != 53 {
		t.Fatalf("udp mismatch: %+v", got.UDP)
	}
	if !bytes.Equal(got.Payload, []byte{0xab, 0xcd}) {
		t.Fatalf("payload = %x", got.Payload)
	}
}

func TestPacketParseSerializeRoundTrip(t *testing.T) {
	p := NewTCP(addrA, 33000, addrB, 80, FlagSYN, 42, 0, nil)
	p.TCP.Options = []TCPOption{MSSOption(1460)}
	p.Finalize()
	wire := p.Serialize(SerializeOptions{ComputeChecksums: true, FixLengths: true})
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.TCP.Seq != 42 || !got.TCP.FlagsOnly(FlagSYN) {
		t.Fatalf("parsed %v", got)
	}
	wire2 := got.Serialize(SerializeOptions{ComputeChecksums: true, FixLengths: true})
	if !bytes.Equal(wire, wire2) {
		t.Fatalf("serialize not stable:\n%x\n%x", wire, wire2)
	}
}

func TestPacketSegLen(t *testing.T) {
	syn := NewTCP(addrA, 1, addrB, 2, FlagSYN, 0, 0, nil)
	if syn.SegLen() != 1 {
		t.Errorf("SYN SegLen = %d", syn.SegLen())
	}
	finData := NewTCP(addrA, 1, addrB, 2, FlagFIN|FlagACK, 0, 0, []byte("xy"))
	if finData.SegLen() != 3 {
		t.Errorf("FIN+2 SegLen = %d", finData.SegLen())
	}
	if finData.EndSeq() != 3 {
		t.Errorf("EndSeq = %d", finData.EndSeq())
	}
}

func TestCloneIsDeep(t *testing.T) {
	p := NewTCP(addrA, 1, addrB, 2, FlagACK, 10, 20, []byte("abc"))
	p.TCP.Options = []TCPOption{TimestampOption(1, 2)}
	c := p.Clone()
	c.Payload[0] = 'z'
	c.TCP.Options[0].Data[0] = 0xff
	c.IP.TTL = 3
	if p.Payload[0] != 'a' || p.TCP.Options[0].Data[0] == 0xff || p.IP.TTL == 3 {
		t.Fatal("clone aliases original")
	}
}

func TestTupleCanonical(t *testing.T) {
	a := FourTuple{SrcAddr: addrA, SrcPort: 1000, DstAddr: addrB, DstPort: 80}
	if a.Canonical() != a.Reverse().Canonical() {
		t.Fatal("canonical not direction independent")
	}
	if a.Reverse().Reverse() != a {
		t.Fatal("reverse not involutive")
	}
}

func TestFragmentAndReassemble(t *testing.T) {
	payload := bytes.Repeat([]byte("0123456789"), 30) // 300 bytes
	p := NewTCP(addrA, 4000, addrB, 80, FlagPSH|FlagACK, 1, 1, payload)
	p.IP.ID = 777
	p.Finalize()
	frags, err := Fragment(p, 120)
	if err != nil {
		t.Fatal(err)
	}
	if len(frags) < 3 {
		t.Fatalf("got %d fragments, want >=3", len(frags))
	}
	for i, f := range frags {
		last := i == len(frags)-1
		if f.IP.MoreFragments() == last {
			t.Fatalf("frag %d MF flag wrong", i)
		}
	}
	r := NewReassembler(LastWins)
	var out *Packet
	for _, f := range frags {
		got, err := r.Add(f)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			out = got
		}
	}
	if out == nil {
		t.Fatal("reassembly did not complete")
	}
	if out.TCP == nil || !bytes.Equal(out.Payload, payload) {
		t.Fatalf("reassembled payload mismatch: %d bytes", len(out.Payload))
	}
	if r.Pending() != 0 {
		t.Fatalf("pending = %d", r.Pending())
	}
}

func TestReassembleOutOfOrder(t *testing.T) {
	payload := bytes.Repeat([]byte("x"), 200)
	p := NewTCP(addrA, 4000, addrB, 80, FlagACK, 1, 1, payload)
	p.IP.ID = 9
	p.Finalize()
	frags, err := Fragment(p, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReassembler(FirstWins)
	var out *Packet
	for i := len(frags) - 1; i >= 0; i-- {
		got, err := r.Add(frags[i])
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			out = got
		}
	}
	if out == nil || !bytes.Equal(out.Payload, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
}

func TestReassemblyOverlapPolicies(t *testing.T) {
	// Build two fragment series by hand: same offset/length, different
	// content, to verify FirstWins vs LastWins (§3.2 of the paper).
	mk := func(off int, data []byte, more bool) *Packet {
		f := &Packet{IP: IPv4Header{TTL: 64, Protocol: ProtoUDP, Src: addrA, Dst: addrB, ID: 5}}
		f.IP.FragOffset = uint16(off / 8)
		if more {
			f.IP.Flags |= IPFlagMoreFragments
		}
		f.Payload = data
		f.IP.SetLengths(len(data))
		return f
	}
	// UDP header (8 bytes) then 8 bytes of body sent twice.
	hdr := &UDPHeader{SrcPort: 1, DstPort: 2, Length: 16}
	hdrBytes := hdr.SerializeTo(nil, addrA, addrB, nil, SerializeOptions{})[:8]

	for _, tc := range []struct {
		policy OverlapPolicy
		want   byte
	}{{FirstWins, 'A'}, {LastWins, 'B'}} {
		r := NewReassembler(tc.policy)
		if _, err := r.Add(mk(8, bytes.Repeat([]byte{'A'}, 8), false)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Add(mk(8, bytes.Repeat([]byte{'B'}, 8), false)); err != nil {
			t.Fatal(err)
		}
		first := mk(0, hdrBytes, true)
		out, err := r.Add(first)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil {
			t.Fatalf("policy %v: did not complete", tc.policy)
		}
		if out.Payload[0] != tc.want {
			t.Errorf("policy %v: byte = %c, want %c", tc.policy, out.Payload[0], tc.want)
		}
	}
}

func TestICMPTimeExceededQuote(t *testing.T) {
	orig := NewTCP(addrA, 31000, addrB, 80, FlagSYN, 123456, 0, nil)
	m := TimeExceeded(orig)
	wire := (&Packet{IP: IPv4Header{TTL: 64, Protocol: ProtoICMP, Src: addrB, Dst: addrA}, ICMP: m}).Finalize().
		Serialize(SerializeOptions{ComputeChecksums: true, FixLengths: true})
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.ICMP == nil || got.ICMP.Type != ICMPTimeExceeded {
		t.Fatalf("icmp = %+v", got.ICMP)
	}
	_, sp, dp, seq, ok := got.ICMP.QuotedTCP()
	if !ok || sp != 31000 || dp != 80 || seq != 123456 {
		t.Fatalf("quoted = %d,%d,%d,%v", sp, dp, seq, ok)
	}
}

func TestLyingTotalLengthParses(t *testing.T) {
	p := NewTCP(addrA, 1, addrB, 2, FlagACK, 0, 0, []byte("hi"))
	p.IP.TotalLength = 4000 // lies: larger than actual
	wire := p.Serialize(SerializeOptions{ComputeChecksums: true})
	got, err := Parse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Payload, []byte("hi")) {
		t.Fatalf("payload = %q", got.Payload)
	}
	if int(got.IP.TotalLength) <= len(wire) {
		t.Fatal("lying TotalLength not preserved")
	}
}

func TestBadChecksumDetected(t *testing.T) {
	p := NewTCP(addrA, 1, addrB, 2, FlagACK, 5, 6, []byte("data"))
	if !p.TCP.VerifyChecksum(p.IP.Src, p.IP.Dst, p.Payload) {
		t.Fatal("fresh packet should verify")
	}
	p.TCP.Checksum ^= 0x5555
	if p.TCP.VerifyChecksum(p.IP.Src, p.IP.Dst, p.Payload) {
		t.Fatal("corrupted checksum should not verify")
	}
}

func TestFinalizeSetsHonestTotalLength(t *testing.T) {
	// Regression: Finalize once clobbered TotalLength back to the bare
	// header length, which only surfaced when captures were re-parsed.
	p := NewTCP(addrA, 1, addrB, 2, FlagPSH|FlagACK, 1, 1, []byte("hello world"))
	want := p.IP.HeaderLen() + p.TCP.HeaderLen() + len(p.Payload)
	if int(p.IP.TotalLength) != want {
		t.Fatalf("TotalLength = %d, want %d", p.IP.TotalLength, want)
	}
	if !p.IP.VerifyChecksum() {
		t.Fatal("IP checksum stale after Finalize")
	}
	// A plain serialize (no FixLengths) must round-trip.
	got, err := Parse(p.Serialize(SerializeOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Payload) != "hello world" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestDecrementTTLIncrementalChecksum(t *testing.T) {
	for _, ttl := range []uint8{1, 2, 63, 64, 128, 255} {
		h := IPv4Header{TTL: ttl, Protocol: ProtoTCP, Src: addrA, Dst: addrB, ID: 0x7777}
		h.SetLengths(100)
		h.UpdateChecksum()
		h.DecrementTTL()
		if h.TTL != ttl-1 {
			t.Fatalf("ttl = %d", h.TTL)
		}
		if !h.VerifyChecksum() {
			t.Fatalf("incremental checksum wrong after decrement from %d", ttl)
		}
	}
}

func TestFragmentReassembleProperty(t *testing.T) {
	// Any payload, any legal MTU, any arrival order: reassembly must
	// reproduce the original datagram byte-for-byte.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		n := 30 + rng.Intn(400)
		payload := make([]byte, n)
		rng.Read(payload)
		p := NewTCP(addrA, 4000, addrB, 80, FlagPSH|FlagACK, Seq(rng.Uint32()), 1, payload)
		p.IP.ID = uint16(rng.Uint32())
		p.Finalize()
		mtu := 48 + rng.Intn(200)
		frags, err := Fragment(p, mtu)
		if err != nil {
			continue // MTU too small for this header: fine
		}
		// Shuffle arrival order.
		rng.Shuffle(len(frags), func(a, b int) { frags[a], frags[b] = frags[b], frags[a] })
		r := NewReassembler(LastWins)
		var out *Packet
		for _, f := range frags {
			got, err := r.Add(f)
			if err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if got != nil {
				out = got
			}
		}
		if out == nil {
			t.Fatalf("iter %d: incomplete (mtu %d, %d frags)", i, mtu, len(frags))
		}
		if out.TCP == nil || !bytes.Equal(out.Payload, payload) {
			t.Fatalf("iter %d: payload mismatch (%d vs %d bytes)", i, len(out.Payload), len(payload))
		}
		if out.TCP.Seq != p.TCP.Seq || out.TCP.Flags != p.TCP.Flags {
			t.Fatalf("iter %d: header mismatch", i)
		}
		if !out.TCP.VerifyChecksum(out.IP.Src, out.IP.Dst, out.Payload) {
			t.Fatalf("iter %d: checksum lost in reassembly", i)
		}
	}
}

func TestFragmentTooSmallMTU(t *testing.T) {
	p := NewTCP(addrA, 1, addrB, 2, FlagACK, 0, 0, make([]byte, 50))
	if _, err := Fragment(p, 24); err == nil {
		t.Fatal("tiny MTU should error")
	}
	p.IP.Flags |= IPFlagDontFragment
	if _, err := Fragment(p, 200); err == nil {
		t.Fatal("DF should forbid fragmentation")
	}
}
