package core

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestRegisteredNamesGolden pins every registered strategy name: a
// rename breaks the INTANG result cache, the table runners and any
// downstream config referring to strategies by name, so it must be a
// conscious change (regenerate with
// `go run ./cmd/tables -what strategies`).
func TestRegisteredNamesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/strategy_names.golden")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range Registry() {
		names = append(names, e.Name)
	}
	got := strings.Join(names, "\n") + "\n"
	if got != string(want) {
		t.Errorf("registered names drifted from testdata/strategy_names.golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestStrategyTableGolden pins the full `-what strategies` dump — name
// and canonical spec for the whole suite.
func TestStrategyTableGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/strategies.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := "== strategy registry: name ↔ spec ==\n" + FormatStrategyTable()
	if got != string(want) {
		t.Errorf("strategy table drifted from testdata/strategies.golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestFactoryNamesMatchAliases checks that the suite BuiltinFactories
// hands out is keyed by exactly the registered names, and that the
// factory under each name — there and from ResolveStrategy — compiles
// that name's registered spec, so a strategy's label and its behaviour
// cannot part.
func TestFactoryNamesMatchAliases(t *testing.T) {
	m := BuiltinFactories()
	if len(m) != len(Registry()) {
		t.Errorf("BuiltinFactories has %d entries, the registry %d", len(m), len(Registry()))
	}
	for _, e := range Registry() {
		f, ok := m[e.Name]
		if !ok {
			t.Errorf("BuiltinFactories has no %q", e.Name)
			continue
		}
		if got := f().(*Compiled).spec.String(); got != e.Spec {
			t.Errorf("BuiltinFactories()[%q] compiles %q, want %q", e.Name, got, e.Spec)
		}
		r, _, err := ResolveStrategy(e.Name)
		if err != nil {
			t.Errorf("ResolveStrategy(%q): %v", e.Name, err)
			continue
		}
		if got := r().(*Compiled).spec.String(); got != e.Spec {
			t.Errorf("ResolveStrategy(%q) factory compiles %q, want %q", e.Name, got, e.Spec)
		}
	}
}

// TestSpecRoundTrip holds the registry to canonical text: Parse∘String
// is the identity on every entry's spec — the property that makes
// canonical spec strings a stable strategy identity — and resolving an
// entry's name yields that text and a strategy compiled from it.
func TestSpecRoundTrip(t *testing.T) {
	for _, e := range Registry() {
		spec, err := ParseSpec(e.Spec)
		if err != nil {
			t.Errorf("%s: ParseSpec(%q): %v", e.Name, e.Spec, err)
			continue
		}
		if canon := spec.String(); canon != e.Spec {
			t.Errorf("%s: registered spec %q is not canonical (want %q)", e.Name, e.Spec, canon)
		}
		f, canon, err := ResolveStrategy(e.Name)
		if err != nil {
			t.Errorf("ResolveStrategy(%q): %v", e.Name, err)
			continue
		}
		if canon != e.Spec {
			t.Errorf("ResolveStrategy(%q) canonical %q, want %q", e.Name, canon, e.Spec)
		}
		if got := f().(*Compiled).spec; !reflect.DeepEqual(got, spec) {
			t.Errorf("ResolveStrategy(%q) compiled %q, want %q", e.Name, got, spec)
		}
	}
	// And on the baseline.
	if s := MustParseSpec("pass"); s.String() != "pass" || len(s.Rules) != 0 {
		t.Errorf("pass round trip: %q (%d rules)", s.String(), len(s.Rules))
	}
}

// TestResolveStrategyCanonical checks the canonical string ResolveStrategy
// returns for keys that are not registered names: spec text is
// re-encoded, so every spelling of one strategy — a registered one
// included — resolves to the same identity, and the passthrough
// spellings all resolve to "pass".
func TestResolveStrategyCanonical(t *testing.T) {
	for _, tc := range []struct{ key, want string }{
		{"", "pass"},
		{"none", "pass"},
		{"  pass ", "pass"},
		{"on:segment[fragment(tcp)]", "on:segment[fragment(tcp,at=4)]"},
		{"on:first-payload[ teardown( flags=rst , disc=ttl ) ]", "on:first-payload[teardown(flags=rst,disc=ttl)]"},
	} {
		if _, canon, err := ResolveStrategy(tc.key); err != nil || canon != tc.want {
			t.Errorf("ResolveStrategy(%q) = %q, %v; want %q", tc.key, canon, err, tc.want)
		}
	}
	if _, _, err := ResolveStrategy("on:first-payload[inject(syn,disc=tll)]"); err == nil ||
		!strings.Contains(err.Error(), `unknown discrepancy "tll"`) {
		t.Errorf("misspelt discrepancy: error %v does not carry the parser's message", err)
	}
}

// TestParseSpecNormalizes checks that forgiving input spellings parse
// and re-encode canonically.
func TestParseSpecNormalizes(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"  pass ", "pass"},
		{"on:handshake[ ]", "on:handshake[]"},
		{"on:first-payload( rexmit , min=16 )[ inject( prefill , disc=ttl ) ]",
			"on:first-payload(min=16,rexmit)[inject(prefill,disc=ttl)]"},
		{"on:segment[fragment(tcp)]", "on:segment[fragment(tcp,at=4)]"},
		{"on:payload[inject(desync,disc=none)]", "on:payload[inject(desync)]"},
		{"on:payload[tamper(seq=8)]", "on:payload[tamper(seq=+8)]"},
		{"on:payload[fragment(ip,at=512)]", "on:payload[fragment(ip,at=512)]"},
		// Line breaks separate tokens, as in censor and topology text.
		{"\tpass\r\n", "pass"},
		{"on:handshake[inject(syn)]\r\non:first-payload[\n\tteardown(flags=rst,\r\n disc=ttl)\n]\n",
			"on:handshake[inject(syn)] on:first-payload[teardown(flags=rst,disc=ttl)]"},
	} {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got.String() != tc.want {
			t.Errorf("ParseSpec(%q).String() = %q, want %q", tc.in, got.String(), tc.want)
		}
	}
}

// TestParseSpecErrors pins the parser's rejection behaviour and message
// wording for representative malformed specs.
func TestParseSpecErrors(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"", "spec: empty input"},
		{"pass pass", `spec: unexpected text after "pass"`},
		{"first-payload[inject(syn)]", `spec: rule must start with "on:<phase>"`},
		{"on:midnight[inject(syn)]", `spec: unknown phase "midnight"`},
		{"on:first-payload(min=-1)[inject(syn)]", `spec: trigger on:first-payload: bad min "-1"`},
		{"on:first-payload(max=9)[inject(syn)]", `spec: trigger on:first-payload: unknown argument "9"`},
		{"on:first-payload inject(syn)", "spec: missing '[' after on:first-payload"},
		{"on:first-payload[inject(syn)", "spec: missing ']' to close on:first-payload"},
		{"on:first-payload[inject(syn) inject(desync)]", "spec: expected ';' or ']'"},
		{"on:first-payload[explode]", `spec: unknown primitive "explode"`},
		{"on:first-payload[inject]", "spec: inject: missing kind (syn, synack, desync or prefill)"},
		{"on:first-payload[inject(ack)]", `spec: inject: unknown kind "ack"`},
		{"on:first-payload[inject(syn,disc=wifi)]", `spec: inject: unknown discrepancy "wifi"`},
		{"on:first-payload[teardown(disc=ttl)]", "spec: teardown: missing flags (rst, rstack, fin or finack)"},
		{"on:first-payload[teardown(flags=syn)]", `spec: teardown: unknown flags "syn"`},
		{"on:first-payload[fragment]", "spec: fragment: missing layer (ip or tcp)"},
		{"on:first-payload[fragment(udp)]", `spec: fragment: unknown layer "udp"`},
		{"on:first-payload[fragment(tcp,at=0)]", `spec: fragment: bad at "0"`},
		{"on:first-payload[fragment(ip,at=0)]", `spec: fragment: bad at "0"`},
		{"on:first-payload[reorder]", "spec: reorder: want reorder(head-last)"},
		{"on:first-payload[duplicate(fill=junk)]", "spec: duplicate: missing selector (tails)"},
		{"on:first-payload[duplicate(tails,pos=middle)]", `spec: duplicate: unknown pos "middle"`},
		{"on:first-payload[tamper]", "spec: tamper: want exactly one of md5, ttl=N, flags=F, seq=±N"},
		{"on:first-payload[tamper(ttl=0)]", `spec: tamper: bad ttl "0"`},
		{"on:first-payload[tamper(seq=0)]", `spec: tamper: bad seq delta "0"`},
		{"on:first-payload[delay]", "spec: delay: want delay(ms=N)"},
		{"on:first-payload[delay(ms=0)]", `spec: delay: bad ms "0"`},
		{"on:first-payload[inject(syn]", "spec: inject: expected ',' or ')'"},
		{"on:first-payload[inject(disc=)]", `spec: inject: missing value for "disc"`},
		{"on:first-payload[inject(,)]", "spec: inject: expected attribute"},
	} {
		_, err := ParseSpec(tc.in)
		if err == nil {
			t.Errorf("ParseSpec(%q) succeeded, want error %q", tc.in, tc.wantErr)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Errorf("ParseSpec(%q) error = %q, want prefix %q", tc.in, err, tc.wantErr)
		}
	}
}

// FuzzParseSpec checks the parser never panics and that accepted input
// reaches a canonical fixed point: String() of a parsed spec re-parses
// to the same string.
func FuzzParseSpec(f *testing.F) {
	for _, e := range Registry() {
		f.Add(e.Spec)
	}
	f.Add("pass")
	f.Add("on:handshake[]")
	f.Add("on:first-payload(min=16,rexmit)[fragment(tcp,at=4); reorder(head-last)]")
	f.Add("on:payload[tamper(seq=-2)]")
	f.Add("on:first-payload[inject(")
	f.Add("on:first-payload[delay(ms=99]]")
	f.Add("on:segment[duplicate(tails,fill=copy,pos=after)]")
	f.Add("on:handshake[inject(syn)]\r\non:first-payload[\n\tteardown(flags=rst,\r\n disc=ttl)\n]")
	f.Fuzz(func(t *testing.T, input string) {
		spec, err := ParseSpec(input)
		if err != nil {
			return
		}
		canon := spec.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form rejected: ParseSpec(%q) -> %q: %v", input, canon, err)
		}
		if back.String() != canon {
			t.Fatalf("not a fixed point: %q -> %q -> %q", input, canon, back.String())
		}
	})
}
