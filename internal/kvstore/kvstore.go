// Package kvstore is the in-memory key-value store INTANG uses for
// per-server strategy results — the stand-in for the Redis instance in
// the paper's implementation (§6). It provides TTL expiry against a
// caller-supplied clock (the simulation's virtual time) and a small LRU
// front cache that models the transient cache of INTANG's caching
// thread (Fig. 2). The model is structural, not a fast path:
// CachedStore reads the backing store on every lookup, so the LRU
// never saves a lookup and never changes a result.
package kvstore

import (
	"container/list"
	"time"
)

// Clock supplies the current time; the simulator's virtual clock in
// tests and experiments.
type Clock func() time.Duration

// Store is a TTL'd key-value store. The zero value is not usable; call
// New.
type Store struct {
	clock Clock
	items map[string]item
}

type item struct {
	value   string
	expires time.Duration // 0 = never
}

// New builds a store against the given clock.
func New(clock Clock) *Store {
	return &Store{clock: clock, items: make(map[string]item)}
}

// Set stores value under key with a TTL; ttl <= 0 means no expiry.
func (s *Store) Set(key, value string, ttl time.Duration) {
	var exp time.Duration
	if ttl > 0 {
		exp = s.clock() + ttl
	}
	s.items[key] = item{value: value, expires: exp}
}

// Get fetches the live value for key.
func (s *Store) Get(key string) (string, bool) {
	it, ok := s.items[key]
	if !ok {
		return "", false
	}
	if it.expires != 0 && s.clock() >= it.expires {
		delete(s.items, key)
		return "", false
	}
	return it.value, true
}

// Delete removes key.
func (s *Store) Delete(key string) { delete(s.items, key) }

// Len returns the number of entries, counting expired ones that no Get
// has removed yet.
func (s *Store) Len() int { return len(s.items) }

// LRU is a fixed-capacity least-recently-used front cache (INTANG's
// transient cache, §6: linked lists plus hash tables).
type LRU struct {
	cap   int
	ll    *list.List
	index map[string]*list.Element
}

type lruEntry struct {
	key   string
	value string
}

// NewLRU builds a cache holding at most capacity entries.
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{cap: capacity, ll: list.New(), index: make(map[string]*list.Element)}
}

// Get fetches a value, marking it most recently used.
func (c *LRU) Get(key string) (string, bool) {
	el, ok := c.index[key]
	if !ok {
		return "", false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry).value, true
}

// Put stores a value, evicting the least recently used entry if full.
func (c *LRU) Put(key, value string) {
	if el, ok := c.index[key]; ok {
		el.Value.(*lruEntry).value = value
		c.ll.MoveToFront(el)
		return
	}
	if c.ll.Len() >= c.cap {
		oldest := c.ll.Back()
		if oldest != nil {
			c.ll.Remove(oldest)
			delete(c.index, oldest.Value.(*lruEntry).key)
		}
	}
	c.index[key] = c.ll.PushFront(&lruEntry{key: key, value: value})
}

// Delete removes a key.
func (c *LRU) Delete(key string) {
	if el, ok := c.index[key]; ok {
		c.ll.Remove(el)
		delete(c.index, key)
	}
}

// Len returns the number of cached entries.
func (c *LRU) Len() int { return c.ll.Len() }

// CachedStore layers an LRU over a Store, as INTANG's caching thread
// layers its transient cache over Redis (Fig. 2). Writes go to both; a
// read consults the backing store first, which enforces the TTL, and
// only then the LRU, so the LRU never saves a lookup and never changes
// a result.
type CachedStore struct {
	Front *LRU
	Back  *Store
}

// NewCachedStore builds the two-level cache INTANG uses.
func NewCachedStore(capacity int, clock Clock) *CachedStore {
	return &CachedStore{Front: NewLRU(capacity), Back: New(clock)}
}

// Set writes through both levels.
func (c *CachedStore) Set(key, value string, ttl time.Duration) {
	c.Back.Set(key, value, ttl)
	c.Front.Put(key, value)
}

// Get reads the key, consulting the backing store for TTL validity.
func (c *CachedStore) Get(key string) (string, bool) {
	v, ok := c.Back.Get(key)
	if !ok {
		c.Front.Delete(key)
		return "", false
	}
	if fv, hit := c.Front.Get(key); hit {
		return fv, true
	}
	c.Front.Put(key, v)
	return v, true
}

// Delete removes the key from both levels.
func (c *CachedStore) Delete(key string) {
	c.Front.Delete(key)
	c.Back.Delete(key)
}
