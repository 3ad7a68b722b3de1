// Package dpi implements the deep-packet-inspection primitives the GFW
// model is built on: an Aho–Corasick multi-pattern keyword matcher (the
// rule-based detection engine of §2.1) and lightweight protocol
// classifiers for HTTP requests, DNS-over-TCP, Tor TLS handshakes, and
// OpenVPN-over-TCP.
package dpi

import (
	"encoding/binary"
	"sync"
)

// Matcher is an Aho–Corasick automaton over byte strings. Matching is
// case-insensitive (ASCII), since censorship keyword lists are.
//
// A built Matcher is read-only: per-stream state lives in each
// StreamScanner. So NewMatcher builds one automaton per distinct
// keyword list and every caller — every censor device of every trial,
// across campaign workers — shares it.
type Matcher struct {
	// delta is the transition function, one 256-entry row per node
	// (1 KiB), indexed node<<8 | b, with ASCII case folded into the
	// columns. A target node with outputs is stored complemented, so a
	// step is one load and a sign test. Node 0 is the root, which has
	// no outputs.
	delta []int32
	// stay marks the bytes whose root transition leads back to the
	// root: at the root, scanning skips them without a table load.
	stay [256]bool
	// out[i] holds the pattern indices that end at node i.
	out      [][]int
	patterns []string
}

func lower(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + 'a' - 'A'
	}
	return b
}

// matchers caches built automata by keyword-list content (see
// matcherKey). It holds only immutable automata, so sharing one cannot
// carry state between callers. A hardening rung that edits a keyword
// list gets its own entry; past maxMatchers distinct lists, NewMatcher
// builds uncached, so callers that invent keyword lists (fuzzers, a
// long-lived daemon) cannot grow it without bound.
var (
	matchersMu sync.Mutex
	matchers   = map[string]*Matcher{}
)

const maxMatchers = 64

// NewMatcher returns the automaton for the given patterns, built once
// per distinct list and shared read-only by every caller. Empty
// patterns are ignored.
func NewMatcher(patterns []string) *Matcher {
	var buf [64]byte
	key := matcherKey(buf[:0], patterns)
	matchersMu.Lock()
	defer matchersMu.Unlock()
	if m := matchers[string(key)]; m != nil {
		return m
	}
	m := buildMatcher(patterns)
	if len(matchers) < maxMatchers {
		matchers[string(key)] = m
	}
	return m
}

// matcherKey appends an injective encoding of the non-empty patterns —
// each one's length, then its bytes — so two lists share a key exactly
// when they build the same automaton.
func matcherKey(b []byte, patterns []string) []byte {
	for _, p := range patterns {
		if p != "" {
			b = binary.AppendUvarint(b, uint64(len(p)))
			b = append(b, p...)
		}
	}
	return b
}

// buildMatcher builds the automaton for patterns.
func buildMatcher(patterns []string) *Matcher {
	m := &Matcher{out: [][]int{nil}}
	// next is the goto function, one dense row per node, completed into
	// the full transition function by the BFS below; fail holds the
	// failure links. Both live only while building.
	next := [][256]int32{{}}
	fail := []int32{0}
	for _, p := range patterns {
		if p == "" {
			continue
		}
		m.patterns = append(m.patterns, p)
		node := int32(0)
		for i := 0; i < len(p); i++ {
			c := lower(p[i])
			if next[node][c] == 0 {
				next = append(next, [256]int32{})
				fail = append(fail, 0)
				m.out = append(m.out, nil)
				next[node][c] = int32(len(next) - 1)
			}
			node = next[node][c]
		}
		m.out[node] = append(m.out[node], len(m.patterns)-1)
	}
	queue := make([]int32, 0, len(next))
	for c := 0; c < 256; c++ {
		if n := next[0][c]; n != 0 {
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for c := 0; c < 256; c++ {
			v := next[u][c]
			if v == 0 {
				next[u][c] = next[fail[u]][c]
				continue
			}
			fail[v] = next[fail[u]][c]
			m.out[v] = append(m.out[v], m.out[fail[v]]...)
			queue = append(queue, v)
		}
	}
	m.delta = make([]int32, len(next)<<8)
	for u := range next {
		for c := 0; c < 256; c++ {
			v := next[u][lower(byte(c))]
			if len(m.out[v]) > 0 {
				v = ^v
			}
			m.delta[u<<8|c] = v
		}
	}
	for c := range m.stay {
		m.stay[c] = m.delta[c] == 0
	}
	return m
}

// Match is one pattern occurrence.
type Match struct {
	// Pattern is the matched pattern text.
	Pattern string
	// End is the byte offset just past the occurrence.
	End int
}

// Scan returns every pattern occurrence in data.
func (m *Matcher) Scan(data []byte) []Match {
	return (&StreamScanner{m: m}).Feed(data)
}

// Contains reports whether any pattern occurs in data.
func (m *Matcher) Contains(data []byte) bool {
	delta, stay := m.delta, &m.stay // held in registers across the loop
	node := int32(0)
	for i := 0; i < len(data); i++ {
		if node == 0 {
			for i < len(data) && stay[data[i]] {
				i++
			}
			if i == len(data) {
				break
			}
		}
		if node = delta[int(node)<<8|int(data[i])]; node < 0 {
			return true
		}
	}
	return false
}

// StreamScanner runs a Matcher incrementally over a byte stream,
// carrying automaton state across chunk boundaries so keywords split
// between segments are still found — the property that distinguishes
// the paper's type-2 (reassembling) GFW devices from type-1 devices.
type StreamScanner struct {
	m    *Matcher
	node int32
	off  int
}

// NewStreamScanner returns a scanner for m starting at stream offset 0.
func (m *Matcher) NewStreamScanner() *StreamScanner {
	return &StreamScanner{m: m}
}

// Feed consumes the next chunk of the stream and returns any matches,
// with End offsets relative to the whole stream.
func (s *StreamScanner) Feed(chunk []byte) []Match {
	var matches []Match
	m, node := s.m, s.node
	delta, stay := m.delta, &m.stay // held in registers across the loop
	for i := 0; i < len(chunk); i++ {
		if node == 0 {
			for i < len(chunk) && stay[chunk[i]] {
				i++
			}
			if i == len(chunk) {
				break
			}
		}
		if node = delta[int(node)<<8|int(chunk[i])]; node < 0 {
			node = ^node
			for _, pi := range m.out[node] {
				matches = append(matches, Match{Pattern: m.patterns[pi], End: s.off + i + 1})
			}
		}
	}
	s.node = node
	s.off += len(chunk)
	return matches
}

// Reset returns the scanner to the stream start.
func (s *StreamScanner) Reset() {
	s.node = 0
	s.off = 0
}
