package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is one named atomic counter. The zero value is ready to use.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n. Safe on a nil receiver.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. Safe on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count. Safe on a nil receiver.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Registry is a set of named atomic metrics: counters, gauges, and
// fixed-bucket histograms. Registration (the first use of a name)
// takes the write lock; subsequent updates take a read lock plus an
// atomic operation, so metric updates are contention-free for a stable
// key set. For fully lock-free hot paths, shard: give each worker its
// own Registry and Merge them after the workers join — counter and
// gauge merges are addition and histogram merges are bucket-wise
// addition, all commutative, so any merge order produces identical
// totals.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use. It
// returns nil on a nil registry (and Counter methods accept nil), so a
// cached handle can be taken unconditionally.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add adds n to the named counter. Safe on a nil receiver.
func (r *Registry) Add(name string, n uint64) {
	if r == nil || n == 0 {
		return
	}
	r.Counter(name).Add(n)
}

// Inc increments the named counter by one. Safe on a nil receiver.
func (r *Registry) Inc(name string) {
	if r == nil {
		return
	}
	r.Counter(name).Add(1)
}

// Value returns the named counter's current count (0 if never used).
func (r *Registry) Value(name string) uint64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	return c.Value()
}

// Gauge returns the named gauge, registering it on first use. It
// returns nil on a nil registry (and Gauge methods accept nil).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, registering it with the given
// bucket bounds on first use. Later calls return the existing
// histogram regardless of bounds — the first registration pins the
// bucket layout, which is what keeps shard merges bucket-aligned.
// Returns nil on a nil registry (and Histogram methods accept nil).
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Observe records one value into the named histogram (registering it
// with bounds on first use). Safe on a nil receiver.
func (r *Registry) Observe(name string, bounds []uint64, v uint64) {
	if r == nil {
		return
	}
	r.Histogram(name, bounds).Observe(v)
}

// Merge adds every metric of other into r: counters and gauges by
// addition, histograms bucket-wise. Merging is associative and
// commutative, so per-worker shards can be folded in any order with
// bit-identical results. Safe when either registry is nil.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	other.mu.RLock()
	defer other.mu.RUnlock()
	for name, c := range other.counters {
		r.Add(name, c.Value())
	}
	for name, g := range other.gauges {
		r.Gauge(name).Add(g.Value())
	}
	for name, h := range other.hists {
		r.Histogram(name, h.bounds).Merge(h)
	}
}

// Snapshot captures all non-zero counters and gauges and all non-empty
// histograms at a point in time.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: make(map[string]uint64)}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		if v := c.Value(); v > 0 {
			s.Counters[name] = v
		}
	}
	for name, g := range r.gauges {
		if v := g.Value(); v != 0 {
			if s.Gauges == nil {
				s.Gauges = make(map[string]int64)
			}
			s.Gauges[name] = v
		}
	}
	for name, h := range r.hists {
		if h.Count() > 0 {
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistogramSnapshot)
			}
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}
