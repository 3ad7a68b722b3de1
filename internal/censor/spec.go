// Package censor is the declarative censor layer: a Spec describes a
// censoring apparatus as data — a stateful TCB engine, detection rules
// (keyword DPI, DNS lists, HTTP Host lists, protocol fingerprints),
// in-path filtering primitives, reactions (reset volleys, residual
// blocklists, flow blackholing, DNS poisoning, active probing),
// hardening countermeasures, and per-device parameter draws — with a
// canonical text encoding that round-trips through ParseCensor,
// exactly as internal/core's Spec does for strategies and
// internal/topo's for topologies. Compilation to live devices lives in
// compile.go: specs with a tcb: statement lower onto the internal/gfw
// engine, tcb-less detect/react specs lower onto the stateless
// bidirectional Blocker (the Turkmenistan-style apparatus of Nourin et
// al.), and filter-only specs lower onto internal/middlebox chains.
package censor

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"intango/internal/packet"
	"intango/internal/spectext"
)

// Detect is one detection rule.
type Detect struct {
	// Kind: "keywords" (payload DPI), "dns" (poisoned-domain list),
	// "host" (HTTP Host blocklist, suffix match), "proto" (protocol
	// fingerprint).
	Kind string
	// Words carries the keyword/domain list, or the single protocol
	// name ("tor", "openvpn") for proto.
	Words []string
	// Both scans both directions (keywords only): response censorship
	// on the GFW engine, bidirectional DPI on the inline blocker.
	Both bool
}

// String renders the detect statement in canonical form.
func (d Detect) String() string {
	s := "detect:" + d.Kind + "(" + strings.Join(d.Words, "+")
	if d.Both {
		s += ",dir=both"
	}
	return s + ")"
}

// Filter is one in-path filtering primitive (the Table 2 middlebox
// behaviours expressed as censor statements).
type Filter struct {
	// Kind: "fragdrop", "reassemble", "checksum", "flagless", "flag".
	Kind string
	// Flag ("fin" or "rst") and P (drop probability) apply to "flag".
	Flag string
	P    float64
}

// String renders the filter statement in canonical form.
func (f Filter) String() string {
	if f.Kind == "flag" {
		return "filter:flag(" + f.Flag + ",p=" + formatFloat(f.P) + ")"
	}
	return "filter:" + f.Kind
}

// React is one reaction rule.
type React struct {
	// Kind: "reset", "block", "drop", "poison", "probe".
	Kind string
	// Type selects the injector for "reset": 1 (bare RST, random
	// TTL/window) or 2 (RST/ACK triples at sequence offsets).
	Type int
	// Offsets overrides the type-2 sequence offsets; nil keeps the
	// measured {0, 1460, 4380}.
	Offsets []int
	// Dur is the residual period for "block" (pair blocklist) and
	// "drop" (flow blackhole).
	Dur time.Duration
	// Delay is the fingerprint→probe delay for "probe".
	Delay time.Duration
	// IP is the forged answer for "poison"; HasIP distinguishes an
	// explicit address from the default poison pool.
	IP    packet.Addr
	HasIP bool
}

// String renders the react statement in canonical form.
func (r React) String() string {
	switch r.Kind {
	case "reset":
		s := fmt.Sprintf("react:reset(type%d", r.Type)
		if len(r.Offsets) > 0 {
			strs := make([]string, len(r.Offsets))
			for i, o := range r.Offsets {
				strs[i] = strconv.Itoa(o)
			}
			s += ",offsets=" + strings.Join(strs, "+")
		}
		return s + ")"
	case "block":
		return "react:block(dur=" + spectext.Duration(r.Dur) + ")"
	case "drop":
		return "react:drop(dur=" + spectext.Duration(r.Dur) + ")"
	case "poison":
		if r.HasIP {
			return "react:poison(ip=" + formatAddr(r.IP) + ")"
		}
		return "react:poison"
	case "probe":
		return "react:probe(delay=" + spectext.Duration(r.Delay) + ")"
	}
	return "react:" + r.Kind
}

// Param is one per-device parameter draw.
type Param struct {
	// Kind: "miss" (detection-miss probability), "resync" (RST sends
	// the TCB to resynchronization), "seglastwins" (overlapping
	// out-of-order segments resolve to the newest copy).
	Kind string
	P    float64
}

// String renders the param statement in canonical form.
func (p Param) String() string {
	return "param:" + p.Kind + "(p=" + formatFloat(p.P) + ")"
}

// Spec is a complete declarative censor.
type Spec struct {
	// TCB selects the stateful engine model: "" (no engine — an inline
	// blocker or a pure filter chain), "evolved" (§4's 2017 model) or
	// "khattak" (the FOCI '13 model).
	TCB     string
	Detects []Detect
	Filters []Filter
	Reacts  []React
	// Hardens lists §8 countermeasures: "checksum", "md5", "trustack".
	Hardens []string
	Params  []Param
}

// String renders the canonical single-line encoding: the tcb statement,
// then detects, filters, reacts, hardens and params, each category in
// declaration order. ParseCensor inverts it exactly:
// ParseCensor(s.String()).String() == s.String().
func (s Spec) String() string {
	var parts []string
	if s.TCB != "" {
		parts = append(parts, "tcb:"+s.TCB)
	}
	for _, d := range s.Detects {
		parts = append(parts, d.String())
	}
	for _, f := range s.Filters {
		parts = append(parts, f.String())
	}
	for _, r := range s.Reacts {
		parts = append(parts, r.String())
	}
	for _, h := range s.Hardens {
		parts = append(parts, "harden:"+h)
	}
	for _, p := range s.Params {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, " ")
}

func formatFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func formatAddr(a packet.Addr) string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// ParseCensor parses the canonical text encoding:
//
//	censor = stmt {" " stmt}
//	stmt   = "tcb:" model | "detect:" det | "filter:" filt |
//	         "react:" rea | "harden:" hard | "param:" par
//	model  = "evolved" | "khattak"
//	det    = "keywords(" words ["," "dir=both"] ")" | "dns(" words ")" |
//	         "host(" words ")" | "proto(" ("tor" | "openvpn") ")"
//	words  = word {"+" word}
//	filt   = "fragdrop" | "reassemble" | "checksum" | "flagless" |
//	         "flag(" ("fin" | "rst") ",p=" float ")"
//	rea    = "reset(type1)" | "reset(type2" ["," "offsets=" ints] ")" |
//	         "block(dur=" duration ")" | "drop(dur=" duration ")" |
//	         "poison(ip=" dotted-quad ")" | "probe(delay=" duration ")"
//	hard   = "checksum" | "md5" | "trustack"
//	par    = ("miss" | "resync" | "seglastwins") "(p=" float ")"
//
// Whitespace (including newlines) between statements is forgiving on
// input; String always emits single spaces. Statements may arrive in
// any order; String emits the canonical category order. Semantic
// checks (which primitives compose, duplicate rules) happen in
// Compile, not here — except a few that would make the encoding
// ambiguous.
func ParseCensor(input string) (Spec, error) {
	sc := spectext.NewScanner("censor", input)
	var spec Spec
	sc.Space()
	if sc.EOF() {
		return Spec{}, sc.Errorf("empty input")
	}
	for {
		sc.Space()
		if sc.EOF() {
			return spec, nil
		}
		head := sc.Run(spectext.Alnum)
		if head == "" || !sc.Consume(':') {
			return Spec{}, sc.Errorf("expected tcb:, detect:, filter:, react:, harden: or param:, got %q", sc.Rest())
		}
		var err error
		switch head {
		case "tcb":
			err = parseTCB(sc, &spec)
		case "detect":
			err = parseDetect(sc, &spec)
		case "filter":
			err = parseFilter(sc, &spec)
		case "react":
			err = parseReact(sc, &spec)
		case "harden":
			err = parseHarden(sc, &spec)
		case "param":
			err = parseParam(sc, &spec)
		default:
			return Spec{}, sc.Errorf("unknown statement %q", head)
		}
		if err != nil {
			return Spec{}, err
		}
	}
}

func parseTCB(sc *spectext.Scanner, spec *Spec) error {
	model := sc.Run(spectext.Alnum)
	if model != "evolved" && model != "khattak" {
		return sc.Errorf("tcb: unknown model %q (want evolved or khattak)", model)
	}
	if spec.TCB != "" {
		return sc.Errorf("duplicate tcb statement")
	}
	spec.TCB = model
	return nil
}

// words splits a '+'-joined word list, rejecting empty elements.
func words(owner, list string) ([]string, error) {
	if list == "" {
		return nil, fmt.Errorf("censor: %s: missing word list", owner)
	}
	parts := strings.Split(list, "+")
	for _, w := range parts {
		if w == "" {
			return nil, fmt.Errorf("censor: %s: empty word in %q", owner, list)
		}
	}
	return parts, nil
}

func parseDetect(sc *spectext.Scanner, spec *Spec) error {
	kind := sc.Run(spectext.Alnum)
	owner := "detect:" + kind
	args, err := sc.Args(owner, spectext.Word)
	if err != nil {
		return err
	}
	d := Detect{Kind: kind}
	switch kind {
	case "keywords", "dns", "host":
		if len(args) == 0 || args[0].Key != "" {
			return sc.Errorf("%s: missing word list", owner)
		}
		d.Words, err = words(owner, args[0].Val)
		if err != nil {
			return err
		}
		for _, a := range args[1:] {
			if a.Key == "dir" && a.Val == "both" && kind == "keywords" {
				d.Both = true
				continue
			}
			return sc.Errorf("%s: unknown argument %q", owner, a.Label())
		}
	case "proto":
		if len(args) != 1 || args[0].Key != "" || (args[0].Val != "tor" && args[0].Val != "openvpn") {
			return sc.Errorf("detect:proto: want proto(tor) or proto(openvpn)")
		}
		d.Words = []string{args[0].Val}
	default:
		return sc.Errorf("detect: unknown kind %q (want keywords, dns, host or proto)", kind)
	}
	spec.Detects = append(spec.Detects, d)
	return nil
}

func parseFilter(sc *spectext.Scanner, spec *Spec) error {
	kind := sc.Run(spectext.Alnum)
	owner := "filter:" + kind
	args, err := sc.Args(owner, spectext.Word)
	if err != nil {
		return err
	}
	f := Filter{Kind: kind}
	switch kind {
	case "fragdrop", "reassemble", "checksum", "flagless":
		if len(args) != 0 {
			return sc.Errorf("%s: takes no arguments", owner)
		}
	case "flag":
		if len(args) != 2 || args[0].Key != "" || args[1].Key != "p" {
			return sc.Errorf("filter:flag: want flag(fin|rst,p=F)")
		}
		if args[0].Val != "fin" && args[0].Val != "rst" {
			return sc.Errorf("filter:flag: unknown flag %q (want fin or rst)", args[0].Val)
		}
		f.Flag = args[0].Val
		f.P, err = prob(owner, args[1].Val)
		if err != nil {
			return err
		}
	default:
		return sc.Errorf("filter: unknown kind %q (want fragdrop, reassemble, checksum, flagless or flag)", kind)
	}
	spec.Filters = append(spec.Filters, f)
	return nil
}

func parseReact(sc *spectext.Scanner, spec *Spec) error {
	kind := sc.Run(spectext.Alnum)
	owner := "react:" + kind
	args, err := sc.Args(owner, spectext.Word)
	if err != nil {
		return err
	}
	r := React{Kind: kind}
	switch kind {
	case "reset":
		if len(args) == 0 || args[0].Key != "" || (args[0].Val != "type1" && args[0].Val != "type2") {
			return sc.Errorf("react:reset: want reset(type1) or reset(type2)")
		}
		r.Type = 1
		if args[0].Val == "type2" {
			r.Type = 2
		}
		for _, a := range args[1:] {
			if a.Key != "offsets" || r.Type != 2 {
				return sc.Errorf("react:reset: unknown argument %q", a.Label())
			}
			for _, s := range strings.Split(a.Val, "+") {
				n, err := strconv.Atoi(s)
				if err != nil || n < 0 {
					return sc.Errorf("react:reset: bad offset %q", s)
				}
				r.Offsets = append(r.Offsets, n)
			}
		}
	case "block", "drop":
		if len(args) != 1 || args[0].Key != "dur" {
			return sc.Errorf("%s: want %s(dur=D)", owner, kind)
		}
		d, err := time.ParseDuration(args[0].Val)
		if err != nil || d <= 0 {
			return sc.Errorf("%s: bad dur %q", owner, args[0].Val)
		}
		r.Dur = d
	case "poison":
		if len(args) > 1 || (len(args) == 1 && args[0].Key != "ip") {
			return sc.Errorf("react:poison: want poison or poison(ip=A.B.C.D)")
		}
		if len(args) == 1 {
			a, err := parseAddr(args[0].Val)
			if err != nil {
				return sc.Errorf("react:poison: bad ip %q", args[0].Val)
			}
			r.IP, r.HasIP = a, true
		}
	case "probe":
		if len(args) != 1 || args[0].Key != "delay" {
			return sc.Errorf("react:probe: want probe(delay=D)")
		}
		d, err := time.ParseDuration(args[0].Val)
		if err != nil || d <= 0 {
			return sc.Errorf("react:probe: bad delay %q", args[0].Val)
		}
		r.Delay = d
	default:
		return sc.Errorf("react: unknown kind %q (want reset, block, drop, poison or probe)", kind)
	}
	spec.Reacts = append(spec.Reacts, r)
	return nil
}

func parseHarden(sc *spectext.Scanner, spec *Spec) error {
	kind := sc.Run(spectext.Alnum)
	switch kind {
	case "checksum", "md5", "trustack":
	default:
		return sc.Errorf("harden: unknown countermeasure %q (want checksum, md5 or trustack)", kind)
	}
	for _, h := range spec.Hardens {
		if h == kind {
			return sc.Errorf("duplicate harden:%s", kind)
		}
	}
	spec.Hardens = append(spec.Hardens, kind)
	return nil
}

func parseParam(sc *spectext.Scanner, spec *Spec) error {
	kind := sc.Run(spectext.Alnum)
	owner := "param:" + kind
	switch kind {
	case "miss", "resync", "seglastwins":
	default:
		return sc.Errorf("param: unknown parameter %q (want miss, resync or seglastwins)", kind)
	}
	args, err := sc.Args(owner, spectext.Word)
	if err != nil {
		return err
	}
	if len(args) != 1 || args[0].Key != "p" {
		return sc.Errorf("%s: want %s(p=F)", owner, kind)
	}
	f, err := prob(owner, args[0].Val)
	if err != nil {
		return err
	}
	for _, q := range spec.Params {
		if q.Kind == kind {
			return sc.Errorf("duplicate param:%s", kind)
		}
	}
	spec.Params = append(spec.Params, Param{Kind: kind, P: f})
	return nil
}

// prob parses a probability in [0, 1].
func prob(owner, s string) (float64, error) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f < 0 || f > 1 {
		return 0, fmt.Errorf("censor: %s: bad probability %q (want [0,1])", owner, s)
	}
	return f, nil
}

// parseAddr parses a dotted quad.
func parseAddr(s string) (packet.Addr, error) {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return packet.Addr{}, fmt.Errorf("bad address")
	}
	var out [4]byte
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 || n > 255 {
			return packet.Addr{}, fmt.Errorf("bad address")
		}
		out[i] = byte(n)
	}
	return packet.AddrFrom4(out[0], out[1], out[2], out[3]), nil
}
