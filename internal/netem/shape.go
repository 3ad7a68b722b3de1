package netem

import (
	"fmt"
	"time"
)

// This file adds congestion-real links to the fabric: a rated
// link serializes packets at a finite bit rate through a finite
// FIFO queue (tail-drop, optionally RED). Everything is integer
// virtual-time arithmetic, so shaped campaigns stay bit-identical
// serial vs parallel; the state is lazily allocated only when a link
// sets a rate, so unshaped topologies keep the allocation-free and
// branch-cheap hot path.

// DefaultQueueLimit is the queue depth (in packets) used when a link
// sets a rate but no explicit queue size.
const DefaultQueueLimit = 64

// linkShaper is the runtime state of one direction of a rated link: a
// token-bucket serializer with a finite packet queue. A packet
// admitted at virtual time now departs at
//
//	dep = max(freeAt, now) + wireBits/rate
//
// and freeAt advances to dep, so back-to-back packets queue behind
// each other exactly as on a transmission line. Queue occupancy is
// the number of packets admitted but not yet departed; when it
// reaches limit the packet is tail-dropped ("drop-queue"), and with
// RED enabled packets are probabilistically dropped once the queue is
// half full ("drop-red"), the drop probability ramping linearly to 1
// at the tail.
type linkShaper struct {
	rate   int64 // bits per second, always > 0
	limit  int   // max packets queued awaiting serialization
	red    bool
	freeAt time.Duration   // when the link finishes its current backlog
	depart []time.Duration // departure times of queued packets, ascending
}

// reset makes s the idle runtime state of one link direction, keeping
// its queue's storage, and returns it.
func (s *linkShaper) reset(rate int64, limit int, red bool) *linkShaper {
	if limit <= 0 {
		limit = DefaultQueueLimit
	}
	*s = linkShaper{rate: rate, limit: limit, red: red, depart: s.depart[:0]}
	return s
}

// admit runs the shaping decision for a packet of the given wire size
// entering the link now. It returns the queueing+serialization delay
// to add on top of the link's propagation latency, or a drop event
// (evDropQueue or evDropRED; -1 means admitted). The RED draw comes
// from the simulation PRNG, but only on RED-enabled links, so
// configurations without RED consume exactly the draws they did
// before shaping existed.
func (s *linkShaper) admit(sim *Simulator, size int) (time.Duration, int) {
	now := sim.Now()
	// Retire packets that have finished serializing.
	n := 0
	for n < len(s.depart) && s.depart[n] <= now {
		n++
	}
	if n > 0 {
		s.depart = s.depart[:copy(s.depart, s.depart[n:])]
	}
	occ := len(s.depart)
	if occ >= s.limit {
		return 0, evDropQueue
	}
	if s.red {
		half := s.limit / 2
		if occ >= half && float64(occ-half) > sim.Rand().Float64()*float64(s.limit-half) {
			return 0, evDropRED
		}
	}
	tx := time.Duration(size*8) * time.Second / time.Duration(s.rate)
	start := s.freeAt
	if start < now {
		start = now
	}
	dep := start + tx
	s.freeAt = dep
	s.depart = append(s.depart, dep)
	return dep - now, -1
}

// FormatRate renders a bit rate in the topo grammar's canonical form:
// the largest of gbit/mbit/kbit that divides it exactly, else bare
// bits ("1mbit", "500kbit", "12345bit").
func FormatRate(bits int64) string {
	switch {
	case bits%1_000_000_000 == 0:
		return fmt.Sprintf("%dgbit", bits/1_000_000_000)
	case bits%1_000_000 == 0:
		return fmt.Sprintf("%dmbit", bits/1_000_000)
	case bits%1_000 == 0:
		return fmt.Sprintf("%dkbit", bits/1_000)
	default:
		return fmt.Sprintf("%dbit", bits)
	}
}
