package uis_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"intango/internal/device"
	"intango/internal/device/uis"
	"intango/internal/netem"
	"intango/internal/packet"
)

var (
	cliAddr = packet.AddrFrom4(10, 0, 0, 1)
	srvAddr = packet.AddrFrom4(203, 0, 113, 80)
)

// newPair joins two stacks with a pipe on one running clock.
func newPair(t *testing.T) (cli, srv *uis.Stack) {
	t.Helper()
	clk := netem.NewClock(1, 1)
	clk.Start()
	t.Cleanup(clk.Stop)
	return newPairOn(t, clk)
}

// newPairOn joins two stacks with a pipe on clk. Over the pipe a
// handshake needs no clock, so a pair on a stopped clock connects too.
func newPairOn(t *testing.T, clk *netem.Clock) (cli, srv *uis.Stack) {
	t.Helper()
	a, b := device.NewPipe(clk, 0)
	srv = uis.New(a, uis.Config{
		Addr: packet.AddrFrom4(203, 0, 113, 80),
		Seed: 2,
	})
	cli = uis.New(b, uis.Config{
		Addr:  packet.AddrFrom4(10, 0, 0, 1),
		Seed:  1,
		Hosts: map[string]packet.Addr{"server.example": packet.AddrFrom4(203, 0, 113, 80)},
	})
	t.Cleanup(func() {
		cli.Close()
		srv.Close()
	})
	return cli, srv
}

// silentStack is a stack on a stopped clock whose device's far end is
// returned raw: nothing answers unless the test writes to it.
func silentStack(t *testing.T) (*uis.Stack, *device.PipeEnd) {
	t.Helper()
	peer, dev := device.NewPipe(netem.NewClock(1, 1), 0)
	st := uis.New(dev, uis.Config{Addr: cliAddr, Seed: 1})
	t.Cleanup(func() { st.Close() })
	return st, peer
}

// readSYN reads the next packet from peer and requires a bare SYN.
func readSYN(t *testing.T, peer *device.PipeEnd) *packet.Packet {
	t.Helper()
	pkt, err := peer.ReadPacket()
	if err != nil || pkt.TCP == nil || !pkt.TCP.FlagsOnly(packet.FlagSYN) {
		t.Fatalf("packet on the wire: %v, %v; want a SYN", pkt, err)
	}
	return pkt
}

// TestEchoAndEOF runs a raw byte exchange over two userspace stacks
// joined by a pipe: data both ways, then an orderly close that the
// peer reads as io.EOF.
func TestEchoAndEOF(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(9000)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(buf)
		if err != nil {
			done <- fmt.Errorf("server read: %w", err)
			return
		}
		if _, err := c.Write(append([]byte("echo:"), buf[:n]...)); err != nil {
			done <- fmt.Errorf("server write: %w", err)
			return
		}
		c.Close()
		done <- nil
	}()

	conn, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 9000)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatalf("client write: %v", err)
	}
	reply, err := io.ReadAll(conn) // reads until the server's FIN
	if err != nil {
		t.Fatalf("client read: %v", err)
	}
	if string(reply) != "echo:ping" {
		t.Errorf("reply: got %q want %q", reply, "echo:ping")
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
	conn.Close()
}

// TestNetHTTPOverUserspaceStack is the ROADMAP shape reduced to its
// core: a stock net/http client and a stock net/http server, each on
// its own userspace stack, talking across a packet pipe.
func TestNetHTTPOverUserspaceStack(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(80)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go http.Serve(l, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, "hello from userspace, path=%s", r.URL.Path)
	}))

	hc := &http.Client{
		Transport: &http.Transport{DialContext: cli.DialContext},
		Timeout:   10 * time.Second,
	}
	resp, err := hc.Get("http://server.example/probe")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	if resp.StatusCode != 200 {
		t.Errorf("status: got %d", resp.StatusCode)
	}
	if string(body) != "hello from userspace, path=/probe" {
		t.Errorf("body: got %q", body)
	}
}

// TestReadDeadline: a blocked Read honors SetReadDeadline.
func TestReadDeadline(t *testing.T) {
	cli, srv := newPair(t)
	l, err := srv.Listen(9100)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go l.Accept() // accept and hold silently

	conn, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 9100)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err = conn.Read(make([]byte, 1))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("Read: got %v want deadline exceeded", err)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("deadline took %v", waited)
	}
}

// TestDialRefused: dialing a port nobody listens on gets the stack's
// RST back as a dial error, not a hang.
func TestDialRefused(t *testing.T) {
	cli, _ := newPair(t)
	_, err := cli.Dial(packet.AddrFrom4(203, 0, 113, 80), 4444)
	if err == nil {
		t.Fatalf("Dial succeeded against a closed port")
	}
}

// TestReadDeadlineOnStoppedClock: a read deadline is a wall-clock
// timer of its own, so it fires while virtual time stands still.
func TestReadDeadlineOnStoppedClock(t *testing.T) {
	cli, srv := newPairOn(t, netem.NewClock(1, 1)) // never started
	l, err := srv.Listen(9100)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go l.Accept() // accept and hold silently

	conn, err := cli.Dial(srvAddr, 9100)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	read := make(chan error, 1)
	go func() {
		_, err := conn.Read(make([]byte, 1))
		read <- err
	}()
	select {
	case err := <-read:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read: got %v want deadline exceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Read still blocked 2s after a 50ms deadline on a stopped clock")
	}
}

// TestDialContextCancel: cancelling a dial's context ends the dial
// with the context's error, though the peer never answers and the
// clock stands still.
func TestDialContextCancel(t *testing.T) {
	st, peer := silentStack(t)
	ctx, cancel := context.WithCancel(context.Background())
	dialed := make(chan error, 1)
	go func() {
		_, err := st.DialContext(ctx, "tcp", "203.0.113.80:80")
		dialed <- err
	}()
	readSYN(t, peer)
	time.AfterFunc(50*time.Millisecond, cancel)
	select {
	case err := <-dialed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialContext: got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dial still blocked 2s after its context was cancelled")
	}
}

// TestCancelledDialLeavesNoConnection: a dial whose context is
// cancelled abandons its connection, as Linux abandons a connect
// interrupted in SYN_SENT: a second of virtual time later the peer has
// read no further SYN, and the stack holds no connection.
func TestCancelledDialLeavesNoConnection(t *testing.T) {
	clk := netem.NewClock(1, 1) // never started: only Advance moves it
	peer, dev := device.NewPipe(clk, 0)
	st := uis.New(dev, uis.Config{Addr: cliAddr, Seed: 1})
	ctx, cancel := context.WithCancel(context.Background())
	dialed := make(chan error, 1)
	go func() {
		_, err := st.DialContext(ctx, "tcp", "203.0.113.80:80")
		dialed <- err
	}()
	readSYN(t, peer)
	cancel()
	select {
	case err := <-dialed:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("DialContext: got %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dial still blocked 2s after its context was cancelled")
	}
	clk.Advance(time.Second)
	if n := st.Conns(); n != 0 {
		t.Errorf("Conns() = %d after the dial gave up, want 0", n)
	}
	st.Close() // the peer reads what was written, then ErrClosed
	if pkt, err := peer.ReadPacket(); err == nil {
		t.Errorf("the peer read %v after the dial gave up", pkt)
	}
}

// TestDeviceCloseWakesBlockedCallers: on a stopped clock, where nothing
// else wakes them, closing a stack's device ends a blocked Read, dial
// and Accept, each with its error.
func TestDeviceCloseWakesBlockedCallers(t *testing.T) {
	st, peer := silentStack(t)
	// One established connection: the test answers its SYN by hand.
	type dialResult struct {
		c   net.Conn
		err error
	}
	dialed := make(chan dialResult, 1)
	go func() {
		c, err := st.Dial(srvAddr, 80)
		dialed <- dialResult{c, err}
	}()
	syn := readSYN(t, peer)
	peer.WritePacket(packet.NewTCP(srvAddr, 80, cliAddr, syn.TCP.SrcPort,
		packet.FlagSYN|packet.FlagACK, 1000, syn.TCP.Seq.Add(1), nil))
	d := <-dialed
	if d.err != nil {
		t.Fatalf("Dial: %v", d.err)
	}
	l, err := st.Listen(8080)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}

	errs := make(chan error, 3)
	go func() {
		_, err := d.c.Read(make([]byte, 1))
		errs <- fmt.Errorf("read: %w", err)
	}()
	go func() {
		_, err := l.Accept()
		errs <- fmt.Errorf("accept: %w", err)
	}()
	go func() {
		_, err := st.Dial(srvAddr, 81)
		errs <- fmt.Errorf("dial: %w", err)
	}()
	peer.ReadPacket() // the handshake's ACK
	readSYN(t, peer)  // the second dial is waiting
	// Give the read and the accept time to block too; one that has not
	// yet waited sees the closed device at once, with the same error.
	time.Sleep(20 * time.Millisecond)
	st.Close()

	want := map[string]error{"read": io.ErrUnexpectedEOF, "accept": device.ErrClosed, "dial": device.ErrClosed}
	for range want {
		select {
		case err := <-errs:
			op, _, _ := strings.Cut(err.Error(), ":")
			if !errors.Is(err, want[op]) {
				t.Errorf("%v; want %v", err, want[op])
			}
		case <-time.After(2 * time.Second):
			t.Fatal("a caller still blocked 2s after its device closed")
		}
	}
}

// TestClockDrivesBlockedDials: two stacks on one stopped Clock dial
// peers that never answer, and a single Advance fires both stacks' SYN
// retransmissions to the limit. The last one aborts each connection,
// and that state change wakes its dial, which fails with no
// wall-clock wait.
func TestClockDrivesBlockedDials(t *testing.T) {
	clk := netem.NewClock(1, 1) // never started: only Advance moves it
	var peers []*device.PipeEnd
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		a, b := device.NewPipe(clk, 0)
		cli := uis.New(b, uis.Config{Addr: packet.AddrFrom4(10, 0, 0, byte(1+i)), Seed: int64(i)})
		t.Cleanup(func() { cli.Close() })
		peers = append(peers, a)
		go func() {
			_, err := cli.Dial(srvAddr, 80)
			errs <- err
		}()
	}
	// The SYN on the wire means its dial holds the clock's lock until
	// it waits on its connection's queue, and its retransmission timer
	// is armed.
	for _, peer := range peers {
		readSYN(t, peer)
	}
	clk.Advance(time.Minute)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || !strings.Contains(err.Error(), "retransmission-limit") {
				t.Errorf("dial: got %v, want retransmission-limit", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a dial still blocked after the clock passed every retransmission")
		}
	}
}
