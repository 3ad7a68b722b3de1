package core

import (
	"os"
	"strings"
	"testing"
)

// TestRegisteredNamesGolden pins every registered strategy alias: a
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
		names = append(names, e.Alias)
	}
	got := strings.Join(names, "\n") + "\n"
	if got != string(want) {
		t.Errorf("registered names drifted from testdata/strategy_names.golden:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestStrategyTableGolden pins the full `-what strategies` dump — alias
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

// TestFactoryNamesMatchAliases checks that the factory a registry entry
// builds reports the registered alias as its Name() — the string every
// stats key, trace line and table row uses.
func TestFactoryNamesMatchAliases(t *testing.T) {
	for _, e := range Registry() {
		if got := e.Spec.FactoryAs(e.Alias)().Name(); got != e.Alias {
			t.Errorf("FactoryAs(%q)().Name() = %q", e.Alias, got)
		}
		f, _, err := ResolveStrategy(e.Alias)
		if err != nil {
			t.Errorf("ResolveStrategy(%q): %v", e.Alias, err)
			continue
		}
		if got := f().Name(); got != e.Alias {
			t.Errorf("ResolveStrategy(%q) factory Name() = %q", e.Alias, got)
		}
	}
}

// TestSpecRoundTrip checks Parse∘String is the identity on every
// registered spec — the property that makes canonical spec strings a
// stable strategy identity.
func TestSpecRoundTrip(t *testing.T) {
	for _, e := range Registry() {
		canon := e.Spec.String()
		back, err := ParseSpec(canon)
		if err != nil {
			t.Errorf("%s: ParseSpec(%q): %v", e.Alias, canon, err)
			continue
		}
		if back.String() != canon {
			t.Errorf("%s: round trip %q -> %q", e.Alias, canon, back.String())
		}
	}
	// And on the baseline.
	if s := MustParseSpec("pass"); s.String() != "pass" || len(s.Rules) != 0 {
		t.Errorf("pass round trip: %q (%d rules)", s.String(), len(s.Rules))
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
		f.Add(e.Spec.String())
	}
	f.Add("pass")
	f.Add("on:handshake[]")
	f.Add("on:first-payload(min=16,rexmit)[fragment(tcp,at=4); reorder(head-last)]")
	f.Add("on:payload[tamper(seq=-2)]")
	f.Add("on:first-payload[inject(")
	f.Add("on:first-payload[delay(ms=99]]")
	f.Add("on:segment[duplicate(tails,fill=copy,pos=after)]")
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
