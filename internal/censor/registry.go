package censor

import (
	"fmt"
	"strings"
	"sync"
)

// Well-known censor names. GFW2017 is the headline instance: the
// evolved Great Firewall the paper measured, whose compiled form must
// reproduce Tables 1/4/5 byte-identical against the committed goldens.
const (
	GFW2017      = "gfw2017"
	GFW2013      = "gfw2013"
	Turkmenistan = "turkmenistan"
	TorProber    = "tor-prober"
)

// Entry is one registered censor: a name, its canonical spec, and the
// measurement the instance models.
type Entry struct {
	Name string
	Spec string
	Note string
}

// gfw2017Spec is the measured evolved GFW as a spec: both reset
// injector types, the 90-second pair blocklist, and the calibrated
// per-device parameter draws of §3.4/§4. The base/params split lets
// the §8 hardened variants splice their harden: statements in at the
// canonical position (harden before param).
const (
	gfw2017Base = "tcb:evolved detect:keywords(ultrasurf) " +
		"react:reset(type1) react:reset(type2) react:block(dur=1m30s)"
	gfw2017Params = "param:miss(p=0.028) param:resync(p=0.22) param:seglastwins(p=0.32)"
	gfw2017Spec   = gfw2017Base + " " + gfw2017Params
)

// Registry lists the censor zoo in display order: the two GFW
// generations, the §8 hardened ablation rungs as spec edits, and the
// non-GFW instances expressed purely in the grammar.
func Registry() []Entry {
	return []Entry{
		{GFW2017, gfw2017Spec,
			"evolved GFW, §4 (Wang et al. 2017)"},
		{GFW2013, "tcb:khattak detect:keywords(ultrasurf) " +
			"react:reset(type1) react:reset(type2) react:block(dur=1m30s) " +
			"param:miss(p=0.028)",
			"prior GFW model (Khattak et al. 2013)"},
		{GFW2017 + "+checksum", gfw2017Base + " harden:checksum " + gfw2017Params,
			"§8 ablation: validates TCP checksums"},
		{GFW2017 + "+md5", gfw2017Base + " harden:md5 " + gfw2017Params,
			"§8 ablation: ignores MD5-optioned packets"},
		{GFW2017 + "+trustack", gfw2017Base + " harden:trustack " + gfw2017Params,
			"§8 ablation: scans only server-acked data"},
		{GFW2017 + "+all", gfw2017Base + " harden:checksum harden:md5 harden:trustack " + gfw2017Params,
			"§8 ablation: all countermeasures"},
		{Turkmenistan, "detect:keywords(ultrasurf,dir=both) " +
			"detect:host(facebook.com+youtube.com) " +
			"detect:dns(dropbox.com+twitter.com) " +
			"react:drop(dur=3m0s) react:poison(ip=127.0.0.1)",
			"bidirectional blackholing + 127.0.0.1 DNS (Nourin et al.)"},
		{TorProber, "tcb:evolved detect:proto(tor) react:reset(type2) " +
			"react:block(dur=1m30s) react:probe(delay=15s) param:miss(p=0)",
			"Tor fingerprint + active probing (Winter & Lindskog)"},
		{"mbox-aliyun", "filter:fragdrop filter:flag(fin,p=0.4)",
			"Table 2 client-side profile (Aliyun)"},
		{"mbox-qcloud", "filter:reassemble filter:flag(rst,p=0.4)",
			"Table 2 client-side profile (QCloud)"},
		{"mbox-unicom-sjz", "filter:reassemble filter:flag(fin,p=1)",
			"Table 2 client-side profile (Unicom Shijiazhuang)"},
		{"mbox-unicom-tj", "filter:reassemble filter:checksum filter:flagless filter:flag(fin,p=1)",
			"Table 2 client-side profile (Unicom Tianjin)"},
	}
}

// Lookup returns the canonical spec text of a registered censor.
func Lookup(name string) (string, bool) {
	for _, e := range Registry() {
		if e.Name == name {
			return e.Spec, true
		}
	}
	return "", false
}

var (
	compiledMu    sync.RWMutex
	compiledCache = make(map[string]*Compiled)
)

// Resolve compiles a censor reference — a registry name or raw spec
// text — caching the result. Compiled censors are immutable and shared
// across trials and workers; Attach stamps out per-trial devices.
func Resolve(ref string) (*Compiled, error) {
	compiledMu.RLock()
	c := compiledCache[ref]
	compiledMu.RUnlock()
	if c != nil {
		return c, nil
	}
	text := ref
	if spec, ok := Lookup(ref); ok {
		text = spec
	}
	spec, err := ParseCensor(text)
	if err != nil {
		return nil, err
	}
	c, err = Compile(spec)
	if err != nil {
		return nil, err
	}
	compiledMu.Lock()
	compiledCache[ref] = c
	compiledMu.Unlock()
	return c, nil
}

// MustResolve is Resolve for statically-known references; it panics on
// error.
func MustResolve(ref string) *Compiled {
	c, err := Resolve(ref)
	if err != nil {
		panic(fmt.Sprintf("censor: %v", err))
	}
	return c
}

// FormatTable renders the name ↔ canonical-spec table for every
// registered censor — what `cmd/tables -what censors` prints.
func FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %-7s %s\n", "censor", "kind", "canonical spec")
	for _, e := range Registry() {
		c := MustResolve(e.Name)
		fmt.Fprintf(&b, "%-18s %-7s %s\n", e.Name, c.Kind().String(), c.Spec().String())
		fmt.Fprintf(&b, "%-18s %-7s ~ %s\n", "", "", e.Note)
	}
	return b.String()
}
