package device

import (
	"sync"

	"intango/internal/netem"
	"intango/internal/packet"
)

// PipeEnd is one side of an in-memory packet pipe. The pipe carries
// serialized wire bytes, not shared pointers: WritePacket encodes the
// datagram, ReadPacket parses a fresh packet on the far side — the
// same copy semantics a real interface has, which is what makes the
// pipe an honest stand-in for one in tests and in the intangd proxy.
//
// Writes never block: each end has a receive queue, and when a
// capacity is set the queue tail-drops like a full NIC ring (Dropped
// counts the losses). That property is load-bearing — both ends write
// while holding their world's clock lock, and a blocking write there
// would deadlock against a reader waiting for that lock.
type PipeEnd struct {
	peer *PipeEnd
	clk  *netem.Clock

	mu sync.Mutex
	rd sync.Cond
	// queue[head:] holds the datagrams not yet read. Once they are all
	// read the queue starts again at the front of its array, so a
	// queue that drains allocates nothing per datagram.
	queue   [][]byte
	head    int
	closed  bool
	peerOff bool
	dropped uint64
	cap     int
}

// NewPipe returns the two connected ends of a packet pipe in the world
// clk keeps. capacity bounds each direction's receive queue (0 means
// unbounded); overflow tail-drops.
func NewPipe(clk *netem.Clock, capacity int) (*PipeEnd, *PipeEnd) {
	a := &PipeEnd{clk: clk, cap: capacity}
	b := &PipeEnd{clk: clk, cap: capacity}
	a.rd.L = &a.mu
	b.rd.L = &b.mu
	a.peer, b.peer = b, a
	return a, b
}

// Clock returns the clock both ends of the pipe share.
func (e *PipeEnd) Clock() *netem.Clock { return e.clk }

// Dropped returns how many inbound datagrams this end's full queue
// discarded.
func (e *PipeEnd) Dropped() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.dropped
}

// WritePacket serializes pkt and queues the bytes at the peer; pkt
// stays the caller's.
func (e *PipeEnd) WritePacket(pkt *packet.Packet) error {
	data := pkt.Serialize(packet.SerializeOptions{})
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	return e.peer.push(data)
}

func (e *PipeEnd) push(data []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	if e.cap > 0 && len(e.queue)-e.head >= e.cap {
		e.dropped++
		e.mu.Unlock()
		return nil
	}
	if len(e.queue) == cap(e.queue) && e.head > 0 {
		// Full to the end of its array: move the unread datagrams to
		// the front instead of growing.
		n := copy(e.queue, e.queue[e.head:])
		clear(e.queue[n:])
		e.queue, e.head = e.queue[:n], 0
	}
	e.queue = append(e.queue, data)
	e.mu.Unlock()
	e.rd.Signal()
	return nil
}

// ReadPacket parses and returns the next queued datagram, blocking
// until one arrives or the pipe is closed (either end). Buffered
// datagrams written before a close remain readable — the half-close
// drain a real socket gives.
func (e *PipeEnd) ReadPacket() (*packet.Packet, error) {
	e.mu.Lock()
	for e.head == len(e.queue) && !e.closed && !e.peerOff {
		e.rd.Wait()
	}
	if e.head == len(e.queue) {
		e.mu.Unlock()
		return nil, ErrClosed
	}
	data := e.queue[e.head]
	e.queue[e.head] = nil
	if e.head++; e.head == len(e.queue) {
		e.queue, e.head = e.queue[:0], 0
	}
	e.mu.Unlock()
	return packet.Parse(data)
}

// Close closes this end: its reads and writes fail, and the peer —
// after draining what was already queued — unblocks with ErrClosed.
// Each end's state lives under its own lock and Close touches them
// one at a time, so two concurrent closes cannot deadlock.
func (e *PipeEnd) Close() error {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.rd.Broadcast()
	p := e.peer
	p.mu.Lock()
	p.peerOff = true
	p.mu.Unlock()
	p.rd.Broadcast()
	return nil
}
