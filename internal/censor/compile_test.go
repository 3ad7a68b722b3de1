package censor

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"intango/internal/gfw"
	"intango/internal/netem"
	"intango/internal/packet"
)

// TestGFW2017Lowering checks the headline spec lowers to exactly the
// gfw.Config the experiment population used to hand-build — the
// equality that keeps the Table 1/4/5 goldens byte-identical under the
// spec-compiled censor.
func TestGFW2017Lowering(t *testing.T) {
	c := MustResolve(GFW2017)
	if c.Kind() != KindEngine {
		t.Fatalf("kind = %v", c.Kind())
	}
	cfg, ok := c.GFWConfig()
	if !ok {
		t.Fatal("GFWConfig not ok for engine spec")
	}
	want := gfw.Config{
		Model:               gfw.ModelEvolved2017,
		Type1:               true,
		Type2:               true,
		Keywords:            []string{"ultrasurf"},
		BlockDuration:       90 * time.Second,
		DetectionMissProb:   0.028,
		ResyncOnRSTProb:     0.22,
		SegmentLastWinsProb: 0.32,
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Errorf("gfw2017 lowering:\ngot  %+v\nwant %+v", cfg, want)
	}
}

// TestGFW2013Lowering checks the prior-model spec selects the Khattak
// state machine and omits the evolved-only parameter draws.
func TestGFW2013Lowering(t *testing.T) {
	cfg, ok := MustResolve(GFW2013).GFWConfig()
	if !ok {
		t.Fatal("GFWConfig not ok")
	}
	if cfg.Model != gfw.ModelKhattak2013 {
		t.Errorf("model = %v", cfg.Model)
	}
	if cfg.ResyncOnRSTProb != 0 || cfg.SegmentLastWinsProb != 0 {
		t.Errorf("khattak spec should not draw evolved params: %+v", cfg)
	}
}

// TestHardenedLowering checks the §8 ablation spec edits set exactly
// the countermeasure toggles.
func TestHardenedLowering(t *testing.T) {
	base, _ := MustResolve(GFW2017).GFWConfig()
	for _, tc := range []struct {
		name  string
		check func(gfw.Config) bool
	}{
		{GFW2017 + "+checksum", func(c gfw.Config) bool { return c.ValidateTCPChecksum && !c.ValidateMD5 && !c.TrustDataAfterServerACK }},
		{GFW2017 + "+md5", func(c gfw.Config) bool { return c.ValidateMD5 && !c.ValidateTCPChecksum && !c.TrustDataAfterServerACK }},
		{GFW2017 + "+trustack", func(c gfw.Config) bool { return c.TrustDataAfterServerACK && !c.ValidateTCPChecksum && !c.ValidateMD5 }},
		{GFW2017 + "+all", func(c gfw.Config) bool { return c.ValidateTCPChecksum && c.ValidateMD5 && c.TrustDataAfterServerACK }},
	} {
		cfg, ok := MustResolve(tc.name).GFWConfig()
		if !ok {
			t.Errorf("%s: not an engine spec", tc.name)
			continue
		}
		if !tc.check(cfg) {
			t.Errorf("%s: wrong hardening toggles: %+v", tc.name, cfg)
		}
		// Everything except the toggles matches the base config.
		cfg.ValidateTCPChecksum, cfg.ValidateMD5, cfg.TrustDataAfterServerACK = false, false, false
		if !reflect.DeepEqual(cfg, base) {
			t.Errorf("%s: hardening edit changed more than its toggles:\ngot  %+v\nwant %+v", tc.name, cfg, base)
		}
	}
}

// TestMissZeroLowersToNever checks param:miss(p=0) defeats the
// zero-means-default convention of gfw.Config.
func TestMissZeroLowersToNever(t *testing.T) {
	cfg, _ := MustResolve(TorProber).GFWConfig()
	if cfg.DetectionMissProb != -1 {
		t.Errorf("miss(p=0) lowered to %v, want -1", cfg.DetectionMissProb)
	}
}

// TestTurkmenistanLowering checks the tcb-less spec lowers onto the
// inline blocker with every list and the explicit poison address.
func TestTurkmenistanLowering(t *testing.T) {
	c := MustResolve(Turkmenistan)
	if c.Kind() != KindInline {
		t.Fatalf("kind = %v", c.Kind())
	}
	if _, ok := c.GFWConfig(); ok {
		t.Error("GFWConfig ok for inline spec")
	}
	want := BlockerConfig{
		Keywords:      []string{"ultrasurf"},
		Bidirectional: true,
		Hosts:         []string{"facebook.com", "youtube.com"},
		Domains:       []string{"dropbox.com", "twitter.com"},
		BlockDuration: 3 * time.Minute,
		PoisonDNS:     true,
		PoisonAddr:    packet.AddrFrom4(127, 0, 0, 1),
	}
	if !reflect.DeepEqual(c.blk, want) {
		t.Errorf("turkmenistan lowering:\ngot  %+v\nwant %+v", c.blk, want)
	}
}

// TestChainLowering checks a filter-only spec attaches the middlebox
// processor chain in statement order.
func TestChainLowering(t *testing.T) {
	c := MustResolve("mbox-unicom-tj")
	if c.Kind() != KindChain {
		t.Fatalf("kind = %v", c.Kind())
	}
	var node netem.Node
	if _, err := Attach(&node, "mbox-unicom-tj", "x", true, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, p := range node.Processors {
		names = append(names, p.Name())
	}
	want := "frag-reassembler checksum-validator flagless-dropper fin-dropper"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("chain = %q, want %q", got, want)
	}
}

// TestBuildKinds checks Attach stamps out the right device type per
// kind, and that a caller binding the companion itself (filter false)
// gets the tap alone.
func TestBuildKinds(t *testing.T) {
	for _, tc := range []struct{ ref, want string }{
		{GFW2017, "*gfw.Device"},
		{Turkmenistan, "*censor.Blocker"},
	} {
		var node netem.Node
		inst, err := Attach(&node, tc.ref, "d", false, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%T", inst); got != tc.want {
			t.Errorf("%s: Attach built %s, want %s", tc.ref, got, tc.want)
		}
		if len(node.Taps) != 1 || node.Taps[0] != inst || len(node.Processors) != 0 {
			t.Errorf("%s: node holds taps %v and processors %v, want the tap alone", tc.ref, node.Taps, node.Processors)
		}
	}
}

// TestAttachRegistry attaches every registered censor to an empty
// node: a device censor leaves its tap and then its companion filter,
// a filter-only censor its chain as processors and no instance.
func TestAttachRegistry(t *testing.T) {
	for _, e := range Registry() {
		var node netem.Node
		inst, err := Attach(&node, e.Name, "c", true, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)))
		if err != nil {
			t.Errorf("%s: %v", e.Name, err)
			continue
		}
		if c := MustResolve(e.Name); c.Kind() == KindChain {
			if inst != nil || len(node.Taps) != 0 || len(node.Processors) != len(c.Spec().Filters) {
				t.Errorf("%s: chain left instance %v, %d taps, %d processors; want none, 0, %d",
					e.Name, inst, len(node.Taps), len(node.Processors), len(c.Spec().Filters))
			}
			continue
		}
		if inst == nil || inst.Name() != "c" || len(node.Taps) != 1 || node.Taps[0] != inst ||
			len(node.Processors) != 1 || node.Processors[0].Name() != inst.Filter().Name() {
			t.Errorf("%s: device left instance %v, taps %v, processors %v; want the tap, then its filter",
				e.Name, inst, node.Taps, node.Processors)
		}
	}
	if _, err := Attach(&netem.Node{}, "no-such-censor", "c", true, rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))); err == nil {
		t.Error("Attach resolved an unknown reference")
	}
}

// TestCompileErrors pins the composition rules: which primitives can
// ride together, and on which target.
func TestCompileErrors(t *testing.T) {
	for _, tc := range []struct{ in, wantErr string }{
		{"filter:fragdrop detect:keywords(x) react:drop(dur=1s)",
			"censor: filter: statements cannot mix with tcb/detect/react"},
		{"react:drop(dur=1s)", "censor: no detection rules"},
		{"detect:keywords(x)", "censor: no reactions"},
		{"tcb:evolved detect:host(x) react:reset(type1)",
			"censor: detect:host requires a tcb-less inline censor"},
		{"tcb:evolved detect:keywords(x) react:reset(type1) react:drop(dur=1s)",
			"censor: react:drop requires a tcb-less inline censor"},
		{"tcb:evolved detect:keywords(x) react:block(dur=1s)",
			"censor: a tcb: engine needs at least one react:reset injector"},
		{"tcb:evolved detect:keywords(x) react:reset(type1) react:block(dur=1s)",
			"censor: react:block requires react:reset(type2)"},
		{"tcb:evolved detect:keywords(x) react:reset(type1) react:reset(type1)",
			"censor: duplicate react:reset(type1)"},
		{"tcb:evolved detect:keywords(x) react:reset(type2) react:probe(delay=1s)",
			"censor: react:probe requires detect:proto(tor)"},
		{"tcb:evolved detect:proto(tor) react:reset(type2)",
			"censor: detect:proto(tor) requires react:probe(delay=D)"},
		{"tcb:evolved detect:keywords(x) react:reset(type1) react:poison",
			"censor: react:poison requires a detect:dns domain list"},
		{"detect:keywords(x) react:reset(type1)",
			"censor: react:reset requires a tcb: engine"},
		{"detect:keywords(x) react:block(dur=1s)",
			"censor: react:block requires a tcb: engine"},
		{"detect:proto(tor) react:drop(dur=1s)",
			"censor: detect:proto requires a tcb: engine"},
		{"detect:dns(x) react:poison",
			"censor: an inline censor needs react:drop(dur=D)"},
		{"detect:keywords(x) react:drop(dur=1s) harden:md5",
			"censor: harden:md5 requires a tcb: engine"},
		{"detect:keywords(x) react:drop(dur=1s) param:miss(p=0.1)",
			"censor: param:miss requires a tcb: engine"},
	} {
		spec, err := ParseCensor(tc.in)
		if err != nil {
			t.Fatalf("ParseCensor(%q): %v", tc.in, err)
		}
		_, err = Compile(spec)
		if err == nil {
			t.Errorf("Compile(%q) succeeded, want error %q", tc.in, tc.wantErr)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.wantErr) {
			t.Errorf("Compile(%q) error = %q, want prefix %q", tc.in, err, tc.wantErr)
		}
	}
}

// TestResolve checks the compiled cache: registry names and raw spec
// text both resolve, repeated lookups share one Compiled, and parse
// failures surface.
func TestResolve(t *testing.T) {
	a, err := Resolve(GFW2017)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Resolve(GFW2017)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated Resolve did not share the cached Compiled")
	}
	raw, err := Resolve("detect:keywords(x) react:drop(dur=5s)")
	if err != nil {
		t.Fatal(err)
	}
	if raw.Kind() != KindInline {
		t.Errorf("raw spec kind = %v", raw.Kind())
	}
	if _, err := Resolve("tcb:weird"); err == nil {
		t.Error("Resolve of invalid spec succeeded")
	}
}
