package pcap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p1 := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 100, 0, nil)
	p2 := packet.NewTCP(srvAddr, 80, cliAddr, 4000, packet.FlagSYN|packet.FlagACK, 500, 101, []byte("x"))
	if err := w.WritePacket(1500*time.Millisecond, p1); err != nil {
		t.Fatal(err)
	}
	if err := w.WritePacket(2750*time.Millisecond, p2); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].Time != 1500*time.Millisecond || recs[1].Time != 2750*time.Millisecond {
		t.Fatalf("timestamps = %v %v", recs[0].Time, recs[1].Time)
	}
	got, err := packet.Parse(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TCP == nil || got.TCP.Seq != 100 || !got.TCP.FlagsOnly(packet.FlagSYN) {
		t.Fatalf("parsed %v", got)
	}
}

func TestBadChecksumSurvivesCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagRST, 9, 0, nil)
	p.TCP.Checksum ^= 0x5555
	if err := w.WritePacket(0, p); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := packet.Parse(recs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TCP.VerifyChecksum(got.IP.Src, got.IP.Dst, got.Payload) {
		t.Fatal("capture must preserve the deliberately bad checksum")
	}
}

func TestHeaderFields(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteRaw(0, []byte{0x45, 0}); err != nil {
		t.Fatal(err)
	}
	hdr := buf.Bytes()[:24]
	if binary.LittleEndian.Uint32(hdr[0:]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(hdr[20:]) != 101 {
		t.Fatal("link type must be LINKTYPE_RAW")
	}
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Fatal("short header should error")
	}
}

func TestAttachCapturesLiveTraffic(t *testing.T) {
	sim := netem.NewSimulator(4)
	path := netem.NewChain(sim, 1, netem.Link{}, netem.Link{Latency: time.Millisecond})
	cli := tcpstack.NewStack(cliAddr, tcpstack.Linux44(), sim)
	srv := tcpstack.NewStack(srvAddr, tcpstack.Linux44(), sim)
	cli.AttachClient(path)
	srv.AttachServer(path)
	srv.Listen(80, func(c *tcpstack.Conn) { c.OnData = func(d []byte) { c.Write(d) } })

	var buf bytes.Buffer
	path.Trace = Attach(NewWriter(&buf), nil)
	c := cli.Connect(srvAddr, 80)
	sim.RunFor(time.Second)
	c.Write([]byte("hello"))
	sim.RunFor(time.Second)

	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// SYN, SYN/ACK, ACK, data, ACK, echo, ACK at minimum.
	if len(recs) < 7 {
		t.Fatalf("captured %d packets", len(recs))
	}
	syn, err := packet.Parse(recs[0].Data)
	if err != nil || !syn.TCP.FlagsOnly(packet.FlagSYN) {
		t.Fatalf("first capture should be the SYN: %v %v", syn, err)
	}
	// Every captured datagram parses.
	for i, rec := range recs {
		if _, err := packet.Parse(rec.Data); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
}

func TestNanoRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewNanoWriter(&buf)
	p := packet.NewTCP(cliAddr, 4000, srvAddr, 80, packet.FlagSYN, 100, 0, nil)
	// Sub-microsecond deltas that the classic format would collapse.
	stamps := []time.Duration{
		1500*time.Millisecond + 1*time.Nanosecond,
		1500*time.Millisecond + 999*time.Nanosecond,
		2*time.Second + 123456789*time.Nanosecond,
	}
	for _, ts := range stamps {
		if err := w.WritePacket(ts, p); err != nil {
			t.Fatal(err)
		}
	}
	if m := binary.LittleEndian.Uint32(buf.Bytes()[0:4]); m != magicNano {
		t.Fatalf("magic = %#x, want %#x", m, uint32(magicNano))
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(stamps) {
		t.Fatalf("records = %d", len(recs))
	}
	for i, ts := range stamps {
		if recs[i].Time != ts {
			t.Fatalf("record %d time = %v, want %v", i, recs[i].Time, ts)
		}
	}
	if got, err := packet.Parse(recs[0].Data); err != nil || got.TCP == nil || got.TCP.Seq != 100 {
		t.Fatalf("parse: %v %v", got, err)
	}
}

func TestMicrosecondStaysDefault(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	p := packet.NewTCP(cliAddr, 1, srvAddr, 2, packet.FlagSYN, 1, 0, nil)
	// A nanosecond-granular stamp is truncated to microseconds in the
	// classic format.
	if err := w.WritePacket(1*time.Second+1234567*time.Nanosecond, p); err != nil {
		t.Fatal(err)
	}
	if m := binary.LittleEndian.Uint32(buf.Bytes()[0:4]); m != magic {
		t.Fatalf("magic = %#x, want %#x", m, uint32(magic))
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1*time.Second + 1234*time.Microsecond; recs[0].Time != want {
		t.Fatalf("time = %v, want %v", recs[0].Time, want)
	}
}
