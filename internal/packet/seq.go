package packet

// Seq is a TCP sequence number. All comparisons are modular (RFC 793
// style, mod 2^32), so sequence spaces that wrap behave correctly.
type Seq uint32

// Add returns s advanced by n bytes, wrapping mod 2^32.
func (s Seq) Add(n int) Seq { return s + Seq(uint32(int32(n))) }

// Diff returns the signed distance s-t in sequence space. The result is
// positive when s is "after" t, negative when "before".
func (s Seq) Diff(t Seq) int32 { return int32(uint32(s) - uint32(t)) }

// Before reports whether s precedes t in sequence space.
func (s Seq) Before(t Seq) bool { return s.Diff(t) < 0 }

// After reports whether s follows t in sequence space.
func (s Seq) After(t Seq) bool { return s.Diff(t) > 0 }

// AtOrBefore reports s <= t in sequence space.
func (s Seq) AtOrBefore(t Seq) bool { return s.Diff(t) <= 0 }

// AtOrAfter reports s >= t in sequence space.
func (s Seq) AtOrAfter(t Seq) bool { return s.Diff(t) >= 0 }

// InWindow reports whether s lies in the half-open window
// [start, start+size). A zero-size window contains nothing.
func (s Seq) InWindow(start Seq, size int) bool {
	if size <= 0 {
		return false
	}
	d := s.Diff(start)
	return d >= 0 && d < int32(size)
}

// Min returns the earlier of s and t in sequence space.
func (s Seq) Min(t Seq) Seq {
	if s.Before(t) {
		return s
	}
	return t
}
