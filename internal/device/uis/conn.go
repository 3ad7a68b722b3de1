package uis

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"intango/internal/tcpstack"
)

// ErrReset is returned by Read/Write after the peer (or a censor
// injecting on the path) reset the connection.
var ErrReset = errors.New("uis: connection reset by peer")

// Conn adapts one tcpstack connection to net.Conn. All state is
// guarded by the owning stack's clock; OnData and OnStateChange run on
// the delivery path or in a timer with that lock already held, so the
// callbacks only record and wake.
type Conn struct {
	stack *Stack
	tc    *tcpstack.Conn
	wake  sync.Cond // the wait queue of a blocked Read or dial

	buf    []byte // received, not yet Read
	closed bool   // local Close called

	readDeadline  time.Time
	writeDeadline time.Time
}

// newConn wraps tc, with the clock's lock held. Once tc closes no
// caller can block on the connection, so the stack forgets it.
func newConn(s *Stack, tc *tcpstack.Conn) *Conn {
	c := &Conn{stack: s, tc: tc}
	c.wake.L = &s.clk.Mutex
	s.conns[c] = struct{}{}
	tc.OnData = func(data []byte) {
		// The chunk is a view of the connection's Received(), so copy
		// into the buffer Read consumes.
		c.buf = append(c.buf, data...)
		c.wake.Broadcast()
	}
	tc.OnStateChange = func(_, to tcpstack.State) {
		if to == tcpstack.Closed {
			delete(s.conns, c)
		}
		c.wake.Broadcast()
	}
	return c
}

// eofState reports whether the peer can send no more data (FIN
// received in some form, or fully closed).
func eofState(st tcpstack.State) bool {
	switch st {
	case tcpstack.CloseWait, tcpstack.LastAck, tcpstack.Closing, tcpstack.TimeWait, tcpstack.Closed:
		return true
	}
	return false
}

// Read blocks until buffered data, EOF, reset, deadline, or close.
func (c *Conn) Read(b []byte) (int, error) {
	s := c.stack
	s.clk.Lock()
	defer s.clk.Unlock()
	for {
		if len(c.buf) > 0 {
			n := copy(b, c.buf)
			c.buf = c.buf[n:]
			return n, nil
		}
		switch {
		case c.closed:
			return 0, net.ErrClosed
		case c.tc.GotRST:
			return 0, ErrReset
		case eofState(c.tc.State()):
			return 0, io.EOF
		case s.down:
			return 0, io.ErrUnexpectedEOF
		}
		if expired(c.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		s.wait(&c.wake, c.readDeadline)
	}
}

// Write queues data on the connection.
func (c *Conn) Write(b []byte) (int, error) {
	s := c.stack
	s.clk.Lock()
	defer s.clk.Unlock()
	if c.closed {
		return 0, net.ErrClosed
	}
	if c.tc.GotRST {
		return 0, ErrReset
	}
	if expired(c.writeDeadline) {
		return 0, os.ErrDeadlineExceeded
	}
	st := c.tc.State()
	if st != tcpstack.Established && st != tcpstack.CloseWait {
		return 0, net.ErrClosed
	}
	c.tc.Write(b)
	return len(b), nil
}

// Close starts an orderly shutdown (FIN after queued data).
func (c *Conn) Close() error {
	s := c.stack
	s.clk.Lock()
	if !c.closed {
		c.closed = true
		c.tc.Close()
	}
	c.wake.Broadcast()
	s.clk.Unlock()
	return nil
}

// LocalAddr returns the connection's local address.
func (c *Conn) LocalAddr() net.Addr {
	a := c.stack.cfg.Addr
	return &net.TCPAddr{IP: net.IPv4(a[0], a[1], a[2], a[3]), Port: int(c.tc.LocalPort())}
}

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr {
	a, p := c.tc.RemoteAddr()
	return &net.TCPAddr{IP: net.IPv4(a[0], a[1], a[2], a[3]), Port: int(p)}
}

// SetDeadline sets both read and write deadlines. Each deadline
// setter wakes the connection's queue, so a blocked Read rearms its
// timer for the new deadline.
func (c *Conn) SetDeadline(t time.Time) error {
	c.stack.clk.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.wake.Broadcast()
	c.stack.clk.Unlock()
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.stack.clk.Lock()
	c.readDeadline = t
	c.wake.Broadcast()
	c.stack.clk.Unlock()
	return nil
}

// SetWriteDeadline sets the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.stack.clk.Lock()
	c.writeDeadline = t
	c.wake.Broadcast()
	c.stack.clk.Unlock()
	return nil
}
