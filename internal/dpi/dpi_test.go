package dpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestMatcherBasic(t *testing.T) {
	m := NewMatcher([]string{"ultrasurf", "falun", "tor"})
	if !m.Contains([]byte("GET /?q=ultrasurf HTTP/1.1")) {
		t.Fatal("should match ultrasurf")
	}
	if m.Contains([]byte("GET /?q=innocent HTTP/1.1")) {
		t.Fatal("should not match")
	}
	got := m.Scan([]byte("tor and ultrasurf"))
	if len(got) != 2 || got[0].Pattern != "tor" || got[1].Pattern != "ultrasurf" {
		t.Fatalf("scan = %+v", got)
	}
	if got[0].End != 3 {
		t.Fatalf("End = %d", got[0].End)
	}
}

func TestMatcherCaseInsensitive(t *testing.T) {
	m := NewMatcher([]string{"UltraSurf"})
	if !m.Contains([]byte("ULTRASURF")) || !m.Contains([]byte("ultrasurf")) {
		t.Fatal("matching must be case-insensitive")
	}
}

func TestMatcherOverlappingPatterns(t *testing.T) {
	m := NewMatcher([]string{"he", "she", "hers"})
	got := m.Scan([]byte("ushers"))
	if len(got) != 3 {
		t.Fatalf("scan = %+v, want 3 matches", got)
	}
}

func TestMatcherEmptyAndNoPatterns(t *testing.T) {
	m := NewMatcher(nil)
	if m.Contains([]byte("anything")) {
		t.Fatal("empty matcher must match nothing")
	}
	m2 := NewMatcher([]string{"", "x"})
	if len(m2.Patterns()) != 1 {
		t.Fatal("empty pattern should be dropped")
	}
}

// naivePatterns is the keyword list the automaton is checked against a
// naive search with.
var naivePatterns = []string{"abc", "bca", "aa", "cab"}

// randomABC returns n bytes drawn from {a, b, c}.
func randomABC(rng *rand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = "abc"[rng.Intn(3)]
	}
	return data
}

// naiveContains reports whether any pattern occurs in data.
func naiveContains(data []byte, patterns []string) bool {
	for _, p := range patterns {
		if strings.Contains(string(data), p) {
			return true
		}
	}
	return false
}

// naiveMatches counts every occurrence of every pattern in data.
func naiveMatches(data []byte, patterns []string) int {
	n := 0
	for _, p := range patterns {
		for i := 0; i+len(p) <= len(data); i++ {
			if string(data[i:i+len(p)]) == p {
				n++
			}
		}
	}
	return n
}

func TestMatcherAgainstNaiveSearch(t *testing.T) {
	m := NewMatcher(naivePatterns)
	f := func(seed int64, n uint8) bool {
		data := randomABC(rand.New(rand.NewSource(seed)), int(n))
		return m.Contains(data) == naiveContains(data, naivePatterns)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSharedMatcher checks the automaton cache: one *Matcher per
// distinct keyword list, shared safely by concurrent scanners, with
// Patterns unable to change the shared table. Campaign workers scan
// one automaton from many goroutines; `make race` runs this test under
// the race detector.
func TestSharedMatcher(t *testing.T) {
	m := NewMatcher(naivePatterns)
	if NewMatcher(append([]string(nil), naivePatterns...)) != m {
		t.Fatal("equal keyword lists built two automata")
	}
	if NewMatcher([]string{"", "abc", "bca", "", "aa", "cab"}) != m {
		t.Fatal("empty patterns changed the automaton identity")
	}
	for _, other := range [][]string{naivePatterns[:3], {"abc", "bca", "aa", "CAB"}, {"abcbcaaacab"}, {"ab", "cbca", "aa", "cab"}} {
		if NewMatcher(other) == m {
			t.Fatalf("%q shares the automaton of %q", other, naivePatterns)
		}
	}

	p := m.Patterns()
	p[0] = "zzz"
	if got := m.Patterns(); got[0] != "abc" {
		t.Fatalf("editing Patterns() changed the matcher: %q", got)
	}
	if !m.Contains([]byte("xabcx")) || m.Contains([]byte("zzz")) {
		t.Fatal("editing Patterns() changed matching")
	}

	const goroutines = 8
	var wg sync.WaitGroup
	fresh := make([]*Matcher, goroutines) // a list first built concurrently
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			fresh[seed] = NewMatcher([]string{"built", "concurrently"})
			shared := NewMatcher(naivePatterns)
			rng := rand.New(rand.NewSource(seed))
			sc := shared.NewStreamScanner()
			for i := 0; i < 200; i++ {
				data := randomABC(rng, rng.Intn(64))
				if got, want := shared.Contains(data), naiveContains(data, naivePatterns); got != want {
					t.Errorf("Contains(%q) = %v, want %v", data, got, want)
					return
				}
				want := naiveMatches(data, naivePatterns)
				if got := len(shared.Scan(data)); got != want {
					t.Errorf("Scan(%q) found %d matches, want %d", data, got, want)
					return
				}
				sc.Reset()
				streamed := 0
				for rest := data; len(rest) > 0; {
					k := 1 + rng.Intn(len(rest))
					streamed += len(sc.Feed(rest[:k]))
					rest = rest[k:]
				}
				if streamed != want {
					t.Errorf("stream over %q found %d matches, want %d", data, streamed, want)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
	for _, f := range fresh[1:] {
		if f != fresh[0] {
			t.Fatal("concurrent first builds of one list returned different automata")
		}
	}
}

// TestMatcherCacheBounded checks that callers inventing keyword lists
// cannot grow the automaton cache past maxMatchers, and that lists past
// the bound still get a working automaton. It runs on an empty cache
// and puts the shared one back, so other tests see no difference.
func TestMatcherCacheBounded(t *testing.T) {
	matchersMu.Lock()
	saved := matchers
	matchers = map[string]*Matcher{}
	matchersMu.Unlock()
	defer func() {
		matchersMu.Lock()
		matchers = saved
		matchersMu.Unlock()
	}()

	for i := 0; i < 2*maxMatchers; i++ {
		kw := fmt.Sprintf("keyword%d", i)
		if !NewMatcher([]string{kw}).Contains([]byte("GET /?q=" + kw)) {
			t.Fatalf("automaton %d misses its keyword", i)
		}
	}
	matchersMu.Lock()
	n := len(matchers)
	matchersMu.Unlock()
	if n != maxMatchers {
		t.Fatalf("cache holds %d automata, want the bound %d", n, maxMatchers)
	}
}

func TestStreamScannerAcrossChunks(t *testing.T) {
	m := NewMatcher([]string{"ultrasurf"})
	s := m.NewStreamScanner()
	if got := s.Feed([]byte("GET /?q=ultra")); len(got) != 0 {
		t.Fatalf("premature match: %+v", got)
	}
	got := s.Feed([]byte("surf HTTP/1.1"))
	if len(got) != 1 || got[0].End != len("GET /?q=ultrasurf") {
		t.Fatalf("split keyword: %+v", got)
	}
	s.Reset()
	if s.Offset() != 0 {
		t.Fatal("reset failed")
	}
}

func TestClassifyHTTP(t *testing.T) {
	if p := ClassifyClientStream(80, []byte("GET / HTTP/1.1\r\n")); p != ProtoHTTP {
		t.Fatalf("got %v", p)
	}
	if p := ClassifyClientStream(80, []byte("POST /x HTTP/1.1\r\n")); p != ProtoHTTP {
		t.Fatalf("got %v", p)
	}
	if p := ClassifyClientStream(80, []byte("\x00\x01\x02")); p != ProtoUnknown {
		t.Fatalf("got %v", p)
	}
}

func TestParseHTTPRequest(t *testing.T) {
	req := []byte("GET /search?q=ultrasurf HTTP/1.1\r\nHost: www.example.com\r\nUser-Agent: x\r\n\r\n")
	info, ok := ParseHTTPRequest(req)
	if !ok {
		t.Fatal("parse failed")
	}
	if info.Method != "GET" || info.URI != "/search?q=ultrasurf" || info.Host != "www.example.com" {
		t.Fatalf("info = %+v", info)
	}
	if _, ok := ParseHTTPRequest([]byte("nonsense")); ok {
		t.Fatal("should not parse nonsense")
	}
	if _, ok := ParseHTTPRequest([]byte("GET /incomplete")); ok {
		t.Fatal("incomplete request line should not parse")
	}
}

// buildDNSQuery assembles a minimal DNS query message for name.
func buildDNSQuery(name string) []byte {
	var b []byte
	b = append(b, 0x12, 0x34, 0x01, 0x00, 0x00, 0x01, 0, 0, 0, 0, 0, 0)
	for _, label := range strings.Split(name, ".") {
		b = append(b, byte(len(label)))
		b = append(b, label...)
	}
	b = append(b, 0, 0, 1, 0, 1)
	return b
}

func TestDNSQueryNameExtraction(t *testing.T) {
	msg := buildDNSQuery("www.dropbox.com")
	if got, ok := DNSUDPQueryName(msg); !ok || got != "www.dropbox.com" {
		t.Fatalf("udp qname = %q ok=%v", got, ok)
	}
	tcp := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(tcp, uint16(len(msg)))
	copy(tcp[2:], msg)
	if got, ok := DNSTCPQueryName(tcp); !ok || got != "www.dropbox.com" {
		t.Fatalf("tcp qname = %q ok=%v", got, ok)
	}
	if _, ok := DNSTCPQueryName([]byte{0}); ok {
		t.Fatal("truncated stream should not parse")
	}
	if _, ok := DNSUDPQueryName(make([]byte, 12)); ok {
		t.Fatal("no-question message should not parse")
	}
}

func TestClassifyTorVsTLS(t *testing.T) {
	hello := []byte{tlsRecordHandshake, 3, 1, 0, 50, tlsClientHello}
	hello = append(hello, bytes.Repeat([]byte{0}, 20)...)
	if p := ClassifyClientStream(443, hello); p != ProtoTLS {
		t.Fatalf("plain TLS classified %v", p)
	}
	tor := append(append([]byte{}, hello...), TorCipherMarker...)
	if p := ClassifyClientStream(9001, tor); p != ProtoTor {
		t.Fatalf("tor hello classified %v", p)
	}
}

func TestClassifyOpenVPN(t *testing.T) {
	pkt := []byte{0x00, 0x20, 0x38}
	pkt = append(pkt, bytes.Repeat([]byte{0xaa}, 32)...)
	if p := ClassifyClientStream(1194, pkt); p != ProtoOpenVPN {
		t.Fatalf("openvpn classified %v", p)
	}
}

func TestClassifyDNSByPort(t *testing.T) {
	if p := ClassifyClientStream(53, []byte{0, 10}); p != ProtoDNSTCP {
		t.Fatalf("got %v", p)
	}
}

func TestProtocolStrings(t *testing.T) {
	for _, p := range []Protocol{ProtoUnknown, ProtoHTTP, ProtoDNSTCP, ProtoTLS, ProtoTor, ProtoOpenVPN} {
		if p.String() == "" {
			t.Fatal("empty protocol name")
		}
	}
}

// foldASCII lowers the ASCII letters of s, as the matcher does.
func foldASCII(s string) string {
	b := []byte(s)
	for i, c := range b {
		b[i] = lower(c)
	}
	return string(b)
}

// naiveFoldedScan is the reference FuzzMatcherStream holds the
// automaton to: every occurrence of every pattern in data, compared
// with ASCII case folded, sorted by End and then pattern.
func naiveFoldedScan(data []byte, patterns []string) []Match {
	text := foldASCII(string(data))
	var out []Match
	for _, p := range patterns {
		fp := foldASCII(p)
		for i := 0; i+len(fp) <= len(text); i++ {
			if text[i:i+len(fp)] == fp {
				out = append(out, Match{Pattern: p, End: i + len(fp)})
			}
		}
	}
	sortMatches(out)
	return out
}

func sortMatches(ms []Match) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].End != ms[j].End {
			return ms[i].End < ms[j].End
		}
		return ms[i].Pattern < ms[j].Pattern
	})
}

// FuzzMatcherStream holds the automaton to a case-folded naive search
// over arbitrary data — mixed case, bytes ≥ 0x80 — fed in arbitrary
// chunks: every (pattern, End) pair must match, the scanner's offset
// must count every byte, and Contains and Scan must agree with the
// stream. keywords is split at '|' into the pattern list; cuts gives
// the chunk lengths, one byte each (zero is an empty chunk), and the
// rest of data goes in one last chunk.
func FuzzMatcherStream(f *testing.F) {
	f.Add("ultrasurf", []byte("POST /upload HTTP/1.1\r\n\r\nabcdefghijklmnopqrstuvwxyz ultrasurf ULTRAsurf"), []byte{30, 5, 1})
	f.Add("ultrasurf|falun|freegate|dynaweb|tiananmen|vpn over tcp", []byte("GET /?q=FaLuN+VPN over TCP&x=tiananmenfreegat"), []byte{12, 0, 3})
	f.Add("he|she|hers|HIS", []byte("uSHErs his HiS"), []byte{1, 1, 1, 1})
	f.Add("aa|a|aaa", []byte("aAaAa"), []byte{2})
	f.Add("\xc0\xffz|Z\x80", []byte("\xc0\xffZ\x80\xc0\xffz"), []byte{1, 2})
	f.Add("abc|bca|aa|cab", []byte("abcabcaabca"), []byte{})
	f.Add("", []byte("anything"), []byte{4})
	f.Add("x||x|X", []byte("xXx"), []byte{0, 1, 0})
	// Keyword pieces in random case among random bytes, cut at random.
	rng := rand.New(rand.NewSource(24))
	keywords := []string{"ultrasurf", "falun", "freegate", "dynaweb", "tiananmen", "vpn over tcp"}
	for i := 0; i < 8; i++ {
		var data []byte
		for len(data) < 200 {
			if kw := keywords[rng.Intn(len(keywords))]; rng.Intn(2) == 0 {
				for _, c := range []byte(kw[:1+rng.Intn(len(kw))]) {
					if rng.Intn(3) == 0 {
						c ^= 0x20
					}
					data = append(data, c)
				}
			} else {
				data = append(data, byte(rng.Intn(256)))
			}
		}
		cuts := make([]byte, rng.Intn(6))
		rng.Read(cuts)
		f.Add(strings.Join(keywords[:1+rng.Intn(len(keywords))], "|"), data, cuts)
	}
	f.Fuzz(func(t *testing.T, keywords string, data, cuts []byte) {
		m := buildMatcher(strings.Split(keywords, "|"))
		want := naiveFoldedScan(data, m.patterns)

		sc := m.NewStreamScanner()
		var got []Match
		rest := data
		for _, c := range cuts {
			k := min(int(c), len(rest))
			got = append(got, sc.Feed(rest[:k])...)
			rest = rest[k:]
		}
		got = append(got, sc.Feed(rest)...)
		sortMatches(got)
		if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
			t.Fatalf("stream over %q in chunks %v: %v, naive search %v", data, cuts, got, want)
		}
		if sc.Offset() != len(data) {
			t.Fatalf("offset %d after %d bytes", sc.Offset(), len(data))
		}
		scan := m.Scan(data)
		sortMatches(scan)
		if !reflect.DeepEqual(scan, want) && len(scan)+len(want) > 0 {
			t.Fatalf("Scan(%q) = %v, naive search %v", data, scan, want)
		}
		if got := m.Contains(data); got != (len(want) > 0) {
			t.Fatalf("Contains(%q) = %v with %d matches", data, got, len(want))
		}
	})
}

// TestClassifyHorizon checks the bound the GFW stops keeping a stream's
// prefix at: for any port but 53, a prefix of at least ClassifyHorizon
// bytes that classifies as unknown stays unknown however it continues.
// The prefixes are cut from streams that do classify — every HTTP
// method, TLS and Tor ClientHellos, an OpenVPN reset — with a byte
// sometimes changed, so a classifier reading past the horizon would
// turn one of their extensions known. Every HTTP method must fit
// within the horizon: a longer one fails here instead of silently
// changing the model.
func TestClassifyHorizon(t *testing.T) {
	for _, m := range httpMethods {
		if len(m) > ClassifyHorizon {
			t.Errorf("HTTP method %q is longer than ClassifyHorizon (%d)", m, ClassifyHorizon)
		}
	}
	hello := append([]byte{tlsRecordHandshake, 3, 1, 0, 60, tlsClientHello}, bytes.Repeat([]byte{0x11}, 20)...)
	streams := [][]byte{
		hello,
		append(append([]byte{}, hello...), TorCipherMarker...),
		append([]byte{0x00, 0x20, 0x38}, bytes.Repeat([]byte{0xaa}, 30)...),
		[]byte("ABCDEFGHIJKLMABCDEFGHIJKLM"),
	}
	for _, m := range httpMethods {
		streams = append(streams, []byte(m+"/upload HTTP/1.1\r\n"))
	}
	f := func(seed int64, port uint16) bool {
		if port == 53 {
			port = 80
		}
		rng := rand.New(rand.NewSource(seed))
		s := append([]byte(nil), streams[rng.Intn(len(streams))]...)
		s = append(s, randomABC(rng, rng.Intn(16))...)
		if rng.Intn(2) == 0 {
			s[rng.Intn(len(s))] ^= byte(1 + rng.Intn(255))
		}
		for k := ClassifyHorizon; k <= len(s); k++ {
			if ClassifyClientStream(port, s[:k]) != ProtoUnknown {
				continue
			}
			for j := k + 1; j <= len(s); j++ {
				if p := ClassifyClientStream(port, s[:j]); p != ProtoUnknown {
					t.Logf("port %d: %q is unknown, but its extension %q is %v", port, s[:k], s[:j], p)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Patterns returns a copy of the patterns the matcher was built with;
// the automaton itself is shared and must not change.
func (m *Matcher) Patterns() []string { return append([]string(nil), m.patterns...) }

// Offset returns the number of stream bytes consumed.
func (s *StreamScanner) Offset() int { return s.off }
