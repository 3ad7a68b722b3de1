package spectext

import (
	"reflect"
	"testing"
)

// TestArgs pins the shared argument list: whitespace (line breaks
// included) around each argument, a trailing comma, the value class
// the grammar picks, and errors prefixed with grammar and owner.
func TestArgs(t *testing.T) {
	for _, tc := range []struct {
		in, rest string
		value    func(byte) bool
		want     []Arg
		err      string
	}{
		{in: "x", rest: "x", value: Word},
		{in: "()x", rest: "x", value: Word},
		{in: "( a ,\r\n k=v+w.1 ,)x", rest: "x", value: Word, want: []Arg{{Val: "a"}, {Key: "k", Val: "v+w.1"}}},
		{in: "(tap=ipf:gfw)", value: Ref, want: []Arg{{Key: "tap", Val: "ipf:gfw"}}},
		{in: "(tap=ipf:gfw)", value: Word, err: `g: o: expected ',' or ')', got ":gfw)"`},
		{in: "(,)", value: Word, err: `g: o: expected attribute, got ",)"`},
		{in: "(k=)", value: Word, err: `g: o: missing value for "k"`},
		{in: "(a", value: Word, err: `g: o: expected ',' or ')', got ""`},
	} {
		sc := NewScanner("g", tc.in)
		got, err := sc.Args("o", tc.value)
		if tc.err != "" {
			if err == nil || err.Error() != tc.err {
				t.Errorf("Args(%q) error = %v, want %q", tc.in, err, tc.err)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) || sc.Rest() != tc.rest {
			t.Errorf("Args(%q) = %q, %v, rest %q; want %q, rest %q", tc.in, got, err, sc.Rest(), tc.want, tc.rest)
		}
	}
}
