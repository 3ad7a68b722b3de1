package experiment

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"intango/internal/censor"
)

// TestAblationSpecsCanonical checks the §8 spec-edit ladder is well
// formed: distinct rungs led by the measured GFW, each a canonical spec
// (round-trips through the grammar unchanged) that pins the
// detection-miss draw off and differs from the measured rung only by
// its harden: statements — which only the measured rung lacks.
func TestAblationSpecsCanonical(t *testing.T) {
	specs := AblationCensorSpecs()
	if len(specs) < 2 || specs[0].Hardening != "measured (2017)" {
		t.Fatalf("ladder does not start at the measured GFW: %+v", specs)
	}
	seen := map[string]bool{}
	for i, s := range specs {
		if seen[s.Hardening] {
			t.Errorf("rung %q appears twice", s.Hardening)
		}
		seen[s.Hardening] = true
		spec, err := censor.ParseCensor(s.Spec)
		if err != nil {
			t.Errorf("%s: bad spec %q: %v", s.Hardening, s.Spec, err)
			continue
		}
		if canon := spec.String(); canon != s.Spec {
			t.Errorf("%s: spec %q is not canonical (want %q)", s.Hardening, s.Spec, canon)
		}
		if !strings.Contains(s.Spec, "param:miss(p=0)") {
			t.Errorf("%s: spec %q does not pin the detection-miss draw off", s.Hardening, s.Spec)
		}
		var rest []string
		hardens := 0
		for _, stmt := range strings.Fields(s.Spec) {
			if strings.HasPrefix(stmt, "harden:") {
				hardens++
				continue
			}
			rest = append(rest, stmt)
		}
		if got := strings.Join(rest, " "); got != specs[0].Spec {
			t.Errorf("%s: spec %q differs from the measured rung beyond harden: statements", s.Hardening, s.Spec)
		}
		if (hardens == 0) != (i == 0) {
			t.Errorf("%s: %d harden: statements", s.Hardening, hardens)
		}
	}
}

// TestCensorsMatchGolden regenerates the censor-zoo reference dump —
// registry table, strategy × censor matrix, active-probing demo — and
// compares it against the committed golden (what `cmd/tables -what
// censors` prints at seed 42).
func TestCensorsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full cross-censor matrix campaign")
	}
	want, err := os.ReadFile("testdata/censors.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	WriteCensorsCampaign(&got, NewRunner(42))
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("output drifted from testdata/censors.golden:\ngot:\n%swant:\n%s", got.Bytes(), want)
	}
}
