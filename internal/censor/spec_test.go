package censor

import (
	"strings"
	"testing"
)

// TestRegistrySpecsCanonical checks every registered spec is written in
// canonical form: ParseCensor(spec).String() == spec. Registry entries
// double as the grammar's reference corpus, so they must be exactly
// what String emits.
func TestRegistrySpecsCanonical(t *testing.T) {
	for _, e := range Registry() {
		spec, err := ParseCensor(e.Spec)
		if err != nil {
			t.Errorf("%s: ParseCensor(%q): %v", e.Name, e.Spec, err)
			continue
		}
		if got := spec.String(); got != e.Spec {
			t.Errorf("%s: not canonical:\nregistered: %q\ncanonical:  %q", e.Name, e.Spec, got)
		}
	}
}

// TestCanonicalOrder checks that statements arriving in any order
// canonicalize to the fixed category order (tcb, detect, filter,
// react, harden, param).
func TestCanonicalOrder(t *testing.T) {
	in := "param:miss(p=0.5) harden:md5 react:reset(type1) detect:keywords(x) tcb:evolved"
	want := "tcb:evolved detect:keywords(x) react:reset(type1) harden:md5 param:miss(p=0.5)"
	spec, err := ParseCensor(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != want {
		t.Errorf("canonical order: got %q, want %q", got, want)
	}
}

// TestForgivingWhitespace checks the parser accepts newlines and runs
// of spaces between statements and inside attribute lists.
func TestForgivingWhitespace(t *testing.T) {
	in := "  tcb:evolved\n\tdetect:keywords( a+b , dir=both )\r\n react:reset(type2, offsets=0+1460 )  "
	want := "tcb:evolved detect:keywords(a+b,dir=both) react:reset(type2,offsets=0+1460)"
	spec, err := ParseCensor(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

// TestMicrosecondDurationsRoundTrip checks that sub-millisecond
// durations encode as text the parser reads back: "us", not the micro
// sign time.Duration.String writes.
func TestMicrosecondDurationsRoundTrip(t *testing.T) {
	in := "react:drop(dur=1500ns) react:probe(delay=2us)"
	want := "react:drop(dur=1.5us) react:probe(delay=2us)"
	spec, err := ParseCensor(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if again, err := ParseCensor(want); err != nil || again.String() != want {
		t.Errorf("canonical %q does not parse back to itself: %v", want, err)
	}
}

// TestParseCensorFields spot-checks the structured decomposition of the
// headline spec.
func TestParseCensorFields(t *testing.T) {
	spec, err := ParseCensor(gfw2017Spec)
	if err != nil {
		t.Fatal(err)
	}
	if spec.TCB != "evolved" {
		t.Errorf("TCB = %q", spec.TCB)
	}
	if len(spec.Detects) != 1 || spec.Detects[0].Kind != "keywords" || spec.Detects[0].Words[0] != "ultrasurf" {
		t.Errorf("Detects = %+v", spec.Detects)
	}
	if len(spec.Reacts) != 3 {
		t.Fatalf("Reacts = %+v", spec.Reacts)
	}
	if spec.Reacts[0].Type != 1 || spec.Reacts[1].Type != 2 {
		t.Errorf("reset types = %d, %d", spec.Reacts[0].Type, spec.Reacts[1].Type)
	}
	if spec.Reacts[2].Kind != "block" || spec.Reacts[2].Dur.Seconds() != 90 {
		t.Errorf("block = %+v", spec.Reacts[2])
	}
	if len(spec.Params) != 3 || spec.Params[0].P != 0.028 {
		t.Errorf("Params = %+v", spec.Params)
	}
}

// TestParseCensorErrors pins the parser's error messages: each names
// the offending statement, what was seen, and what the grammar wanted.
func TestParseCensorErrors(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"", "censor: empty input"},
		{"bogus", "censor: expected tcb:, detect:, filter:, react:, harden: or param:"},
		{"zzz:x", `censor: unknown statement "zzz"`},
		{"tcb:weird", `censor: tcb: unknown model "weird"`},
		{"tcb:evolved tcb:khattak", "censor: duplicate tcb statement"},
		{"detect:keywords", "censor: detect:keywords: missing word list"},
		{"detect:keywords(a++b)", "censor: detect:keywords: empty word in"},
		{"detect:keywords(a,dir=up)", `censor: detect:keywords: unknown argument "dir"`},
		{"detect:keywords(", "censor: detect:keywords: expected attribute"},
		{"detect:keywords(a b)", "censor: detect:keywords: expected ',' or ')'"},
		{"detect:proto(http)", "censor: detect:proto: want proto(tor) or proto(openvpn)"},
		{"detect:nope(x)", `censor: detect: unknown kind "nope"`},
		{"filter:fragdrop(x)", "censor: filter:fragdrop: takes no arguments"},
		{"filter:flag(fin)", "censor: filter:flag: want flag(fin|rst,p=F)"},
		{"filter:flag(ack,p=1)", `censor: filter:flag: unknown flag "ack"`},
		{"filter:flag(fin,p=7)", `censor: filter:flag: bad probability "7"`},
		{"filter:nope", `censor: filter: unknown kind "nope"`},
		{"react:reset(type3)", "censor: react:reset: want reset(type1) or reset(type2)"},
		{"react:reset(type1,offsets=1)", `censor: react:reset: unknown argument "offsets"`},
		{"react:reset(type2,offsets=1+-2)", `censor: react:reset: bad offset "-2"`},
		{"react:block", "censor: react:block: want block(dur=D)"},
		{"react:block(dur=banana)", `censor: react:block: bad dur "banana"`},
		{"react:drop(dur=0s)", `censor: react:drop: bad dur "0s"`},
		{"react:poison(ip=999.1.1.1)", `censor: react:poison: bad ip "999.1.1.1"`},
		{"react:poison(ip=)", `censor: react:poison: missing value for "ip"`},
		{"react:probe(delay=0s)", `censor: react:probe: bad delay "0s"`},
		{"react:nope", `censor: react: unknown kind "nope"`},
		{"harden:nope", `censor: harden: unknown countermeasure "nope"`},
		{"harden:md5 harden:md5", "censor: duplicate harden:md5"},
		{"param:nope(p=1)", `censor: param: unknown parameter "nope"`},
		{"param:miss", "censor: param:miss: want miss(p=F)"},
		{"param:miss(p=2)", `censor: param:miss: bad probability "2"`},
		{"param:miss(p=0.1) param:miss(p=0.2)", "censor: duplicate param:miss"},
	} {
		_, err := ParseCensor(tc.in)
		if err == nil {
			t.Errorf("ParseCensor(%q) succeeded, want error %q", tc.in, tc.wantErr)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Errorf("ParseCensor(%q) error = %q, want prefix %q", tc.in, err, tc.wantErr)
		}
	}
}
