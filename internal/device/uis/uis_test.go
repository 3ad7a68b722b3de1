package uis_test

import (
	"errors"
	"fmt"
	"io"
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

// newPair joins two stacks with a pipe on one running clock.
func newPair(t *testing.T) (cli, srv *uis.Stack) {
	t.Helper()
	clk := netem.NewClock(1, 1)
	clk.Start()
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
		clk.Stop()
	})
	return cli, srv
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

// TestClockDrivesBlockedDials: two stacks on one stopped Clock dial
// peers that never answer, and a single Advance fires both stacks' SYN
// retransmissions to the limit, failing both dials with no wall-clock
// wait.
func TestClockDrivesBlockedDials(t *testing.T) {
	clk := netem.NewClock(1, 1) // never started: only Advance moves it
	srv := packet.AddrFrom4(203, 0, 113, 80)
	var peers []*device.PipeEnd
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		a, b := device.NewPipe(clk, 0)
		cli := uis.New(b, uis.Config{Addr: packet.AddrFrom4(10, 0, 0, byte(1+i)), Seed: int64(i)})
		t.Cleanup(func() { cli.Close() })
		peers = append(peers, a)
		go func() {
			_, err := cli.Dial(srv, 80)
			errs <- err
		}()
	}
	// The SYN on the wire means its dial holds the clock's lock until
	// it waits on Tick, and its retransmission timer is armed.
	for _, peer := range peers {
		if pkt, err := peer.ReadPacket(); err != nil || pkt.TCP == nil || !pkt.TCP.FlagsOnly(packet.FlagSYN) {
			t.Fatalf("first packet: %v, %v; want a SYN", pkt, err)
		}
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
