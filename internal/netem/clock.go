package netem

import (
	"sync"
	"time"
)

// clockTick is the wall-clock period of a Clock's pump.
const clockTick = time.Millisecond

// Clock is a live world's one clock: its Simulator, the mutex that
// guards the simulator and everything that runs on it (every stack,
// engine and censor device scheduled there, and the state they share
// with their callers), and a wall-clock pump that advances it. A trial
// needs none of this: it runs its simulator to completion on one
// goroutine. A live world is entered from many goroutines (packet
// pumps, blocked readers, a control plane), and each takes the lock.
//
// Tick is broadcast after every advance, so code waiting under the
// lock for a timer to fire rechecks its condition at the pump's
// cadence, or after each Advance when the pump is not running.
type Clock struct {
	sync.Mutex
	Sim  *Simulator
	Tick sync.Cond

	scale float64
	stop  chan struct{}
	done  chan struct{}
}

// NewClock returns a stopped clock over a simulator seeded with seed.
// scale multiplies wall time into virtual time once the pump runs
// (<= 0 means 1).
func NewClock(seed int64, scale float64) *Clock {
	if scale <= 0 {
		scale = 1
	}
	c := &Clock{Sim: NewSimulator(seed), scale: scale}
	c.Tick.L = &c.Mutex
	return c
}

// Start runs the pump: every millisecond of wall time it advances the
// simulator by the wall time elapsed, times the scale.
func (c *Clock) Start() {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	go c.pump()
}

// Stop ends the pump and waits for it; a clock never started has
// nothing to stop. Virtual time then moves only by Advance.
func (c *Clock) Stop() {
	if c.stop == nil {
		return
	}
	close(c.stop)
	<-c.done
	c.stop = nil
}

// Advance runs the simulator forward by d of virtual time at once,
// firing every timer due on the way. Besides feeding the pump, it is
// the operator's lever for skipping a censor's block window, and the
// tests' for driving timers without waiting on the wall clock.
func (c *Clock) Advance(d time.Duration) {
	c.Lock()
	c.Sim.RunFor(d)
	c.Unlock()
	c.Tick.Broadcast()
}

func (c *Clock) pump() {
	defer close(c.done)
	t := time.NewTicker(clockTick)
	defer t.Stop()
	last := time.Now()
	for {
		select {
		case <-c.stop:
			return
		case now := <-t.C:
			el := now.Sub(last)
			last = now
			if c.scale != 1 {
				el = time.Duration(float64(el) * c.scale)
			}
			c.Advance(el)
		}
	}
}
