// Package uis runs a userspace TCP/IP stack over a packet Device and
// exposes it through the standard net.Conn / net.Listener shapes — the
// bassosimone/uis pattern. A real Go net/http client can dial through
// it, its bytes ride the repo's own tcpstack as raw IPv4 datagrams,
// and whatever sits on the far side of the device (the intangd proxy,
// a simulated censored path, a test pipe) sees honest wire traffic.
//
// The stack has no clock of its own: its tcpstack schedules its
// virtual timers (RTO, persist, TIME_WAIT) on the simulator of the
// device's netem.Clock, whose pump fires them in real time, and the
// clock's lock serializes the TCP state machines and the connection
// buffers together with the rest of that world.
//
// A blocked Read, dial or Accept waits on the queue of its own
// connection or listener: a sync.Cond over the clock's lock. Only that
// connection's events wake it: its data and state changes (whether a
// delivery or a timer caused them), its own Close and deadline
// changes, its listener's accept callback, a timer armed only while the
// caller waits with a deadline, a dial's context being cancelled, and
// the device closing. The clock's pump and the read pump wake nobody
// else.
package uis

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"intango/internal/device"
	"intango/internal/netem"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

// Config parameterizes a Stack.
type Config struct {
	// Addr is the stack's IPv4 address (required).
	Addr packet.Addr
	// Seed drives the stack's initial sequence numbers, from a source
	// of its own: the world's random stream does not move as clients
	// connect.
	Seed int64
	// Hosts resolves names the Dialer sees to addresses on the far
	// side of the device; literal IPv4 strings always resolve.
	Hosts map[string]packet.Addr
}

// The stack runs Linux 4.4's TCP profile, and Dial waits at most
// dialTimeout for the handshake.
const dialTimeout = 10 * time.Second

// Stack is a userspace TCP/IP endpoint bound to a Device. Its state is
// guarded by the device's clock.
type Stack struct {
	cfg  Config
	dev  device.Device
	clk  *netem.Clock
	tcp  *tcpstack.Stack
	down bool // device closed under us

	// conns and listeners hold every connection whose TCP half has not
	// closed and every open listener: the wait queues the device
	// closing wakes.
	conns     map[*Conn]struct{}
	listeners map[*Listener]struct{}

	wg sync.WaitGroup
}

// New builds a stack over dev, on dev's clock, and starts its read
// pump.
func New(dev device.Device, cfg Config) *Stack {
	s := &Stack{
		cfg: cfg, dev: dev, clk: dev.Clock(),
		conns:     make(map[*Conn]struct{}),
		listeners: make(map[*Listener]struct{}),
	}
	s.tcp = tcpstack.NewStack(cfg.Addr, tcpstack.Linux44(), s.clk.Sim)
	// A write to a closed device is lost on the wire; the read pump
	// sees the close and takes the stack down.
	s.tcp.Send = func(pkt *packet.Packet) { _ = dev.WritePacket(pkt) }
	iss := rand.New(netem.NewSource(cfg.Seed))
	s.tcp.ForceISS = func() packet.Seq { return packet.Seq(iss.Uint32()) }
	s.wg.Add(1)
	go s.readPump()
	return s
}

// Close closes the underlying device and waits for the read pump.
func (s *Stack) Close() error {
	err := s.dev.Close() // unblocks the read pump
	s.wg.Wait()
	return err
}

// readPump moves inbound datagrams from the device into the TCP stack.
func (s *Stack) readPump() {
	defer s.wg.Done()
	for {
		pkt, err := s.dev.ReadPacket()
		if err != nil {
			s.clk.Lock()
			s.down = true
			for c := range s.conns {
				c.wake.Broadcast()
			}
			for l := range s.listeners {
				l.wake.Broadcast()
			}
			s.clk.Unlock()
			return
		}
		s.clk.Lock()
		s.tcp.Deliver(pkt)
		s.clk.Unlock()
	}
}

// wait blocks on q, with the clock's lock held, until q is woken or
// deadline (unless zero) passes. The deadline arms a timer for this
// wait alone; it takes the lock to wake q, so it cannot fire between
// the caller's check of the deadline and the wait.
func (s *Stack) wait(q *sync.Cond, deadline time.Time) {
	if deadline.IsZero() {
		q.Wait()
		return
	}
	t := time.AfterFunc(time.Until(deadline), func() { s.wake(q) })
	q.Wait()
	t.Stop()
}

// wake broadcasts q from outside the lock.
func (s *Stack) wake(q *sync.Cond) {
	s.clk.Lock()
	q.Broadcast()
	s.clk.Unlock()
}

// expired reports whether deadline is set and has passed.
func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

// Dial opens a TCP connection to raddr:rport through the device and
// blocks until the handshake completes (or dialTimeout passes).
func (s *Stack) Dial(raddr packet.Addr, rport uint16) (net.Conn, error) {
	return s.dial(context.Background(), raddr, rport)
}

// dial waits for the handshake on the connection's own queue, until
// dialTimeout or ctx's deadline passes or ctx is cancelled. A dial that
// gives up abandons its connection, as an interrupted connect does:
// no further SYN, no RST, and no connection a late SYN/ACK could
// establish.
func (s *Stack) dial(ctx context.Context, raddr packet.Addr, rport uint16) (net.Conn, error) {
	deadline := time.Now().Add(dialTimeout)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	s.clk.Lock()
	defer s.clk.Unlock()
	if s.down {
		return nil, device.ErrClosed
	}
	c := newConn(s, s.tcp.Connect(raddr, rport))
	stop := context.AfterFunc(ctx, func() { s.wake(&c.wake) })
	defer stop()
	for {
		switch c.tc.State() {
		case tcpstack.Established:
			return c, nil
		case tcpstack.SynSent, tcpstack.SynRecv:
			// still shaking hands
		default:
			return nil, s.refusedErr(c.tc, raddr, rport)
		}
		if s.down {
			return nil, device.ErrClosed
		}
		if err := ctx.Err(); err != nil {
			c.tc.Abandon()
			return nil, fmt.Errorf("uis: dial %v:%d: %w", raddr, rport, err)
		}
		if expired(deadline) {
			c.tc.Abandon()
			return nil, fmt.Errorf("uis: dial %v:%d: %w", raddr, rport, os.ErrDeadlineExceeded)
		}
		s.wait(&c.wake, deadline)
	}
}

func (s *Stack) refusedErr(tc *tcpstack.Conn, raddr packet.Addr, rport uint16) error {
	why := tc.AbortReason
	if why == "" && tc.GotRST {
		why = "connection reset"
	}
	if why == "" {
		why = "connection closed"
	}
	return fmt.Errorf("uis: dial %v:%d: %s", raddr, rport, why)
}

// DialContext implements the http.Transport dialer shape. The address
// host resolves through Config.Hosts or as a literal IPv4; the network
// must be "tcp". The dial gives up with ctx's error when ctx is
// cancelled or its deadline passes.
func (s *Stack) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	if network != "tcp" && network != "tcp4" {
		return nil, fmt.Errorf("uis: unsupported network %q", network)
	}
	host, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("uis: dial %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port <= 0 || port > 65535 {
		return nil, fmt.Errorf("uis: dial %q: bad port", addr)
	}
	raddr, ok := s.resolve(host)
	if !ok {
		return nil, fmt.Errorf("uis: dial %q: unknown host", addr)
	}
	return s.dial(ctx, raddr, uint16(port))
}

func (s *Stack) resolve(host string) (packet.Addr, bool) {
	if a, ok := s.cfg.Hosts[host]; ok {
		return a, true
	}
	ip := net.ParseIP(host)
	if ip == nil {
		return packet.Addr{}, false
	}
	v4 := ip.To4()
	if v4 == nil {
		return packet.Addr{}, false
	}
	return packet.AddrFrom4(v4[0], v4[1], v4[2], v4[3]), true
}

// Conns returns how many of the stack's connections have not closed:
// a dialed or accepted connection counts until its TCP half reaches
// CLOSED, after its FIN exchange and TIME_WAIT or a reset.
func (s *Stack) Conns() int {
	s.clk.Lock()
	defer s.clk.Unlock()
	return len(s.conns)
}

// Listen binds a TCP listener on port.
func (s *Stack) Listen(port uint16) (net.Listener, error) {
	s.clk.Lock()
	defer s.clk.Unlock()
	l := &Listener{stack: s, port: port}
	l.wake.L = &s.clk.Mutex
	s.listeners[l] = struct{}{}
	s.tcp.Listen(port, func(tc *tcpstack.Conn) {
		// Runs under the clock's lock (delivery path).
		l.pending = append(l.pending, newConn(s, tc))
		l.wake.Broadcast()
	})
	return l, nil
}

// Listener accepts connections from the stack's TCP listener.
type Listener struct {
	stack   *Stack
	port    uint16
	wake    sync.Cond // the wait queue of a blocked Accept
	pending []*Conn
	closed  bool
}

// Accept blocks until a handshake lands on the listener's port.
func (l *Listener) Accept() (net.Conn, error) {
	s := l.stack
	s.clk.Lock()
	defer s.clk.Unlock()
	for len(l.pending) == 0 && !l.closed && !s.down {
		l.wake.Wait()
	}
	if l.closed || s.down {
		return nil, device.ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Close stops the listener (established connections live on).
func (l *Listener) Close() error {
	s := l.stack
	s.clk.Lock()
	l.closed = true
	delete(s.listeners, l)
	l.wake.Broadcast()
	s.clk.Unlock()
	return nil
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr {
	a := l.stack.cfg.Addr
	return &net.TCPAddr{IP: net.IPv4(a[0], a[1], a[2], a[3]), Port: int(l.port)}
}
