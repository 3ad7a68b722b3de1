package kvstore

import (
	"fmt"
	"strconv"
	"testing"
	"testing/quick"
	"time"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) fn() Clock { return func() time.Duration { return c.now } }

func TestStoreSetGetExpiry(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.fn())
	s.Set("a", "1", 10*time.Second)
	s.Set("b", "2", 0) // never expires
	if v, ok := s.Get("a"); !ok || v != "1" {
		t.Fatalf("a = %q %v", v, ok)
	}
	clk.now = 11 * time.Second
	if _, ok := s.Get("a"); ok {
		t.Fatal("a should have expired")
	}
	if v, ok := s.Get("b"); !ok || v != "2" {
		t.Fatalf("b = %q %v", v, ok)
	}
}

func TestStoreSweepAndDelete(t *testing.T) {
	clk := &fakeClock{}
	s := New(clk.fn())
	for i := 0; i < 10; i++ {
		s.Set(strconv.Itoa(i), "x", time.Duration(i+1)*time.Second)
	}
	clk.now = 5500 * time.Millisecond
	if n := s.Sweep(); n != 5 {
		t.Fatalf("swept %d, want 5", n)
	}
	if s.Len() != 5 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Delete("9")
	if _, ok := s.Get("9"); ok {
		t.Fatal("deleted key present")
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(3)
	c.Put("a", "1")
	c.Put("b", "2")
	c.Put("c", "3")
	c.Get("a") // refresh a
	c.Put("d", "4")
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
	c.Put("a", "10")
	if v, _ := c.Get("a"); v != "10" {
		t.Fatal("update in place failed")
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Delete("a")
	if c.Len() != 2 {
		t.Fatal("delete failed")
	}
}

func TestLRUNeverExceedsCapacity(t *testing.T) {
	f := func(keys []uint8) bool {
		c := NewLRU(4)
		for _, k := range keys {
			c.Put(fmt.Sprintf("k%d", k%20), "v")
			if c.Len() > 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCachedStoreWriteThroughAndTTL(t *testing.T) {
	clk := &fakeClock{}
	cs := NewCachedStore(2, clk.fn())
	cs.Set("srv1", "improved-teardown", 5*time.Second)
	if v, ok := cs.Get("srv1"); !ok || v != "improved-teardown" {
		t.Fatalf("get = %q %v", v, ok)
	}
	// LRU eviction does not lose data (backing store holds it).
	cs.Set("srv2", "b", 5*time.Second)
	cs.Set("srv3", "c", 5*time.Second)
	if v, ok := cs.Get("srv1"); !ok || v != "improved-teardown" {
		t.Fatalf("after eviction: %q %v", v, ok)
	}
	// TTL expiry invalidates LRU hits too.
	clk.now = 6 * time.Second
	if _, ok := cs.Get("srv1"); ok {
		t.Fatal("expired entry served from LRU")
	}
	cs.Set("x", "1", 0)
	cs.Delete("x")
	if _, ok := cs.Get("x"); ok {
		t.Fatal("delete failed")
	}
}

// Sweep removes expired entries and reports how many were removed.
func (s *Store) Sweep() int {
	now := s.clock()
	n := 0
	for k, it := range s.items {
		if it.expires != 0 && now >= it.expires {
			delete(s.items, k)
			n++
		}
	}
	return n
}
