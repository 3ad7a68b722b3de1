package uis

import (
	"errors"
	"io"
	"net"
	"os"
	"time"

	"intango/internal/tcpstack"
)

// ErrReset is returned by Read/Write after the peer (or a censor
// injecting on the path) reset the connection.
var ErrReset = errors.New("uis: connection reset by peer")

// Conn adapts one tcpstack connection to net.Conn. All state is
// guarded by the owning stack's clock; OnData runs on the delivery
// path with that lock already held, so the callback only appends.
type Conn struct {
	stack *Stack
	tc    *tcpstack.Conn

	buf    []byte // received, not yet Read
	closed bool   // local Close called

	readDeadline  time.Time
	writeDeadline time.Time
}

func newConn(s *Stack, tc *tcpstack.Conn) *Conn {
	c := &Conn{stack: s, tc: tc}
	tc.OnData = func(data []byte) {
		// Delivery path: the clock's lock is held. The chunk is a view
		// of the connection's Received(), so copy into the buffer Read
		// consumes.
		c.buf = append(c.buf, data...)
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
		if !c.readDeadline.IsZero() && time.Now().After(c.readDeadline) {
			return 0, os.ErrDeadlineExceeded
		}
		// The clock's pump broadcasts every tick, so deadline checks
		// rerun at tick granularity.
		s.clk.Tick.Wait()
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
	if !c.writeDeadline.IsZero() && time.Now().After(c.writeDeadline) {
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
	s.clk.Unlock()
	s.clk.Tick.Broadcast()
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

// SetDeadline sets both read and write deadlines.
func (c *Conn) SetDeadline(t time.Time) error {
	c.stack.clk.Lock()
	c.readDeadline, c.writeDeadline = t, t
	c.stack.clk.Unlock()
	c.stack.clk.Tick.Broadcast()
	return nil
}

// SetReadDeadline sets the read deadline.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.stack.clk.Lock()
	c.readDeadline = t
	c.stack.clk.Unlock()
	c.stack.clk.Tick.Broadcast()
	return nil
}

// SetWriteDeadline sets the write deadline.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.stack.clk.Lock()
	c.writeDeadline = t
	c.stack.clk.Unlock()
	c.stack.clk.Tick.Broadcast()
	return nil
}
