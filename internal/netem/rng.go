package netem

import (
	"fmt"
	"math/rand"
)

// Source is math/rand's generator — the same stream for every seed —
// seeded in constant time. A campaign seeds a trial RNG per trial and
// draws from it about 47 times, while math/rand's Seed computes all 607
// words of the generator's state up front: about 1,800 steps of a
// Lehmer generator, most of a reseed's cost. Source computes each word
// the first time a draw reads it.
//
// math/rand seeds by stepping x ← 48271·x mod (2³¹−1) from the
// normalized seed x₀, and state word i packs the values of steps
// 21+3i, 22+3i and 23+3i as a<<40 ^ b<<20 ^ c, XORed with the seeding
// constant rngCooked[i]. Step n's value is x₀·48271ⁿ mod (2³¹−1), so
// word i needs only x₀ and a precomputed power of 48271. A draw adds
// the word at tap to the word at feed and stores the sum at feed; after
// a seed both indices count down, feed from 333 and tap from 606, so
// each of the first 334 draws meets at feed a word no draw has read,
// and each of the first 273 another at tap, while every other read is
// of a word an earlier draw stored. Seed therefore stores only x₀, and
// a draw computes the words it meets first.
type Source struct {
	tap, feed int
	// fresh counts the draws still to come whose feed word (and,
	// while tap is at or above rngLen-rngTap, tap word) has not been
	// computed yet.
	fresh int
	x0    uint64
	vec   [rngLen]int64
}

const (
	rngLen = 607
	rngTap = 273
	lcgMod = 1<<31 - 1
	lcgMul = 48271
)

var (
	// rngCooked is math/rand's seeding table, recovered at init from a
	// seeded math/rand source (deriveCooked).
	rngCooked [rngLen]int64
	// wordPow[i] is 48271^(21+3i) mod (2³¹−1): the multiplier taking
	// x₀ to the first of word i's three generator values.
	wordPow [rngLen]uint64
)

func init() {
	p := uint64(1)
	for n := 0; n < 21; n++ {
		p = p * lcgMul % lcgMod
	}
	step3 := uint64(lcgMul) * lcgMul % lcgMod * lcgMul % lcgMod
	for i := range wordPow {
		wordPow[i] = p
		p = p * step3 % lcgMod
	}
	if err := deriveCooked(); err != nil {
		panic("netem: " + err.Error())
	}
}

// deriveCooked recovers rngCooked from math/rand itself, then checks a
// Source against math/rand on another seed. Over its first 607 draws a
// source's feed index visits every word once, storing that draw's
// output there, so the outputs are the state after 607 draws; undoing
// the draws last first (feed -= tap) gives the seeded state, and XOR
// with the generator's packed values leaves the table. An error means
// math/rand no longer works the way Source assumes.
func deriveCooked() error {
	const probe = 1
	src, ok := rand.NewSource(probe).(rand.Source64)
	if !ok {
		return fmt.Errorf("math/rand's source is not a Source64")
	}
	tap, feed := 0, rngLen-rngTap
	for k := 0; k < rngLen; k++ {
		tap, feed = (tap+rngLen-1)%rngLen, (feed+rngLen-1)%rngLen
		rngCooked[feed] = int64(src.Uint64())
	}
	for k := 0; k < rngLen; k++ {
		rngCooked[feed] -= rngCooked[tap]
		tap, feed = (tap+1)%rngLen, (feed+1)%rngLen
	}
	s := NewSource(probe)
	for i := range rngCooked {
		rngCooked[i] ^= s.packed(i)
	}
	// Two passes round the state, so the check covers words computed
	// lazily and words rewritten by draws.
	const check = -(1 << 40) - 3
	want := rand.NewSource(check).(rand.Source64)
	s.Seed(check)
	for k := 0; k < 2*rngLen; k++ {
		if got, w := s.Uint64(), want.Uint64(); got != w {
			return fmt.Errorf("cannot reproduce math/rand: seed %d draw %d gives %#x, math/rand %#x", int64(check), k, got, w)
		}
	}
	return nil
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to rand.NewSource(seed)'s state, in constant
// time.
func (s *Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311 // math/rand's substitute for a zero seed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.fresh = 0, rngLen-rngTap, rngLen-rngTap
}

// word returns state word i as math/rand's Seed computes it.
func (s *Source) word(i int) int64 { return s.packed(i) ^ rngCooked[i] }

// packed returns the three generator values behind word i, packed.
func (s *Source) packed(i int) int64 {
	a := s.x0 * wordPow[i] % lcgMod
	b := a * lcgMul % lcgMod
	c := b * lcgMul % lcgMod
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// Uint64 returns the next 64 bits of the stream.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.fresh > 0 {
		s.fresh--
		s.vec[s.feed] = s.word(s.feed)
		if s.tap >= rngLen-rngTap {
			s.vec[s.tap] = s.word(s.tap)
		}
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative 63-bit integer, as math/rand's source
// does.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

// Float64 returns a float in [0, 1): rand.Rand's Float64 over this
// source, without a rand.Rand around it.
func (s *Source) Float64() float64 {
	for {
		if f := float64(s.Int63()) / (1 << 63); f < 1 {
			return f
		}
	}
}
