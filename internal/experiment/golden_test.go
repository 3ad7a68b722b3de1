package experiment

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"intango/internal/core"
)

// TestTablesMatchGolden regenerates the Table 1, 4 and 5 byte streams
// (quick scale, seed 42 — what `cmd/tables -what 1|4|5` prints) and
// compares them against the goldens captured before the strategy layer
// was decomposed into spec-compiled primitives. Equality here is the
// refactor's core guarantee: the declarative specs reproduce the
// monolithic strategies bit for bit.
func TestTablesMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick-scale campaigns")
	}
	for _, tc := range []struct {
		golden string
		write  func(w *bytes.Buffer)
	}{
		{"testdata/table1.golden", func(w *bytes.Buffer) { WriteTable1Campaign(w, NewRunner(42), QuickScale()) }},
		{"testdata/table4.golden", func(w *bytes.Buffer) { WriteTable4Campaign(w, NewRunner(42), QuickScale()) }},
		{"testdata/table5.golden", func(w *bytes.Buffer) { WriteTable5Campaign(w, NewRunner(42)) }},
		{"testdata/goodput.golden", func(w *bytes.Buffer) {
			r := NewRunner(42)
			r.Obs = NewObsSink()
			WriteGoodputCampaign(w, r, QuickScale())
		}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		tc.write(&got)
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("output drifted from %s:\ngot:\n%swant:\n%s", tc.golden, got.Bytes(), want)
		}
	}
}

// TestTableSpecsMatchRegistry checks the strategies every tally cube
// runs against the registry: each name the Table 1, Table 4 and
// ablation tables give is registered, a cube strategy under a
// registered name carries that name's registered spec, and every other
// (the ad-hoc Table 5 and matrix constructions) carries canonical spec
// text, so the name a campaign prints is the strategy it ran.
func TestTableSpecsMatchRegistry(t *testing.T) {
	registered := map[string]string{}
	for _, e := range core.Registry() {
		registered[e.Name] = e.Spec
	}
	var names []string
	for _, s := range table1Strategies() {
		names = append(names, s.name)
	}
	for _, s := range table4Strategies() {
		names = append(names, s.name)
	}
	names = append(names, ablationStrategies()...)
	for _, name := range names {
		if _, ok := registered[name]; !ok {
			t.Errorf("table strategy %q is not registered", name)
		}
	}
	r := NewRunner(42)
	table5, _ := table5Cube(r)
	matrix, _ := matrixCube(r, MatrixCensors(), 1)
	for _, c := range []*Cube{
		Table1Cube(r, QuickScale()),
		table4Cube(r, VantagePoints(), Servers(1, r.Cal, r.Seed), 1),
		table5,
		AblationCube(r),
		matrix,
	} {
		for _, s := range c.specs {
			if want, ok := registered[s.Name]; ok {
				if s.Spec != want {
					t.Errorf("%s: %s runs %q, registered spec %q", c.name, s.Name, s.Spec, want)
				}
				continue
			}
			spec, err := core.ParseSpec(s.Spec)
			if err != nil {
				t.Errorf("%s: %s: bad spec %q: %v", c.name, s.Name, s.Spec, err)
				continue
			}
			if canon := spec.String(); canon != s.Spec {
				t.Errorf("%s: %s: spec %q is not canonical (want %q)", c.name, s.Name, s.Spec, canon)
			}
		}
	}
}

// TestCubeStrategiesGolden pins the manifest's Labels and Strategies
// (name plus canonical spec) of every tally cube: Table 1 at quick
// scale, Table 4, Table 5, the §8 ablation and the censor matrix. Both
// fields are part of the resume fingerprint, so a change here refuses
// every existing checkpoint directory of that cube.
func TestCubeStrategiesGolden(t *testing.T) {
	const golden = "testdata/cube_strategies.golden"
	r := NewRunner(42)
	table5, _ := table5Cube(r)
	matrix, _ := matrixCube(r, MatrixCensors(), 1)
	var got bytes.Buffer
	for _, c := range []*Cube{
		Table1Cube(r, QuickScale()),
		table4Cube(r, VantagePoints(), Servers(1, r.Cal, r.Seed), 1),
		table5,
		AblationCube(r),
		matrix,
	} {
		m, err := r.manifest(c, shardBounds(len(c.jobs), 1))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		fmt.Fprintf(&got, "== %s ==\nlabels:\n", m.Campaign)
		for _, l := range m.Labels {
			fmt.Fprintf(&got, "  %s\n", l)
		}
		fmt.Fprintln(&got, "strategies:")
		for _, s := range m.Strategies {
			fmt.Fprintf(&got, "  %-24s %s\n", s.Name, s.Spec)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("cube labels or strategies drifted from %s:\ngot:\n%swant:\n%s", golden, got.Bytes(), want)
	}
}
