package core

import (
	"fmt"
	"strconv"
	"strings"

	"intango/internal/spectext"
)

// This file is the declarative half of the strategy layer: a Spec is a
// list of trigger→actions rules with a canonical single-line text
// encoding, e.g.
//
//	on:first-payload[teardown(flags=rst,disc=ttl); inject(desync)]
//
// ParseSpec and Spec.String round-trip, so a spec string is a stable
// identity for a strategy: the INTANG result cache, the table runners
// and the arms-race enumerator all key off it. Compilation to the
// imperative Strategy interface lives in primitives.go.

// Phase is the trigger point of a rule within a connection's life.
type Phase int

const (
	// PhaseHandshake fires once, on the client's initial SYN.
	PhaseHandshake Phase = iota
	// PhaseFirstPayload fires once, on the first packet carrying client
	// payload (where most of the paper's strategies act).
	PhaseFirstPayload
	// PhasePayload fires on every packet carrying client payload.
	PhasePayload
	// PhaseSegment fires on every outbound TCP packet.
	PhaseSegment
)

// String names the phase as it appears in spec text.
func (ph Phase) String() string {
	switch ph {
	case PhaseHandshake:
		return "handshake"
	case PhaseFirstPayload:
		return "first-payload"
	case PhasePayload:
		return "payload"
	case PhaseSegment:
		return "segment"
	default:
		return fmt.Sprintf("phase(%d)", int(ph))
	}
}

func parsePhase(s string) (Phase, bool) {
	for _, ph := range []Phase{PhaseHandshake, PhaseFirstPayload, PhasePayload, PhaseSegment} {
		if ph.String() == s {
			return ph, true
		}
	}
	return 0, false
}

// Trigger decides when a rule's actions run.
type Trigger struct {
	Phase Phase
	// Min suppresses the trigger while the packet's payload is shorter
	// than Min bytes (without consuming a one-shot phase).
	Min int
	// Rexmit re-fires a one-shot trigger on retransmissions of the
	// packet that first fired it, so a lossy path never sees the
	// original segment on the wire.
	Rexmit bool
}

// String renders the trigger in canonical form.
func (tr Trigger) String() string {
	s := "on:" + tr.Phase.String()
	var args []string
	if tr.Min > 0 {
		args = append(args, fmt.Sprintf("min=%d", tr.Min))
	}
	if tr.Rexmit {
		args = append(args, "rexmit")
	}
	if len(args) > 0 {
		s += "(" + strings.Join(args, ",") + ")"
	}
	return s
}

// Rule pairs a trigger with the action pipeline it releases.
type Rule struct {
	Trigger Trigger
	Actions []Action
}

// String renders the rule in canonical form.
func (r Rule) String() string {
	parts := make([]string, len(r.Actions))
	for i, a := range r.Actions {
		parts[i] = a.encode()
	}
	return r.Trigger.String() + "[" + strings.Join(parts, "; ") + "]"
}

// Spec is a complete declarative strategy: rules are checked in order
// against each outbound packet and every matching rule's actions are
// applied to the emission plan. The zero Spec is the passthrough
// baseline and encodes as "pass".
type Spec struct {
	Rules []Rule
}

// String renders the canonical single-line encoding. ParseSpec inverts
// it exactly: ParseSpec(s.String()).String() == s.String().
func (s Spec) String() string {
	if len(s.Rules) == 0 {
		return "pass"
	}
	parts := make([]string, len(s.Rules))
	for i, r := range s.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, " ")
}

// MustParseSpec is ParseSpec for statically-known specs; it panics on
// error.
func MustParseSpec(input string) Spec {
	spec, err := ParseSpec(input)
	if err != nil {
		panic(err)
	}
	return spec
}

// ParseSpec parses the canonical text encoding:
//
//	spec    = "pass" | rule {" " rule}
//	rule    = "on:" phase ["(" targ {"," targ} ")"] "[" [action {"; " action}] "]"
//	phase   = "handshake" | "first-payload" | "payload" | "segment"
//	targ    = "min=" int | "rexmit"
//	action  = name ["(" arg {"," arg} ")"]
//	name    = "inject" | "teardown" | "fragment" | "reorder" |
//	          "duplicate" | "tamper" | "delay"
//	arg     = ident | key "=" value
//
// Whitespace (including line breaks) between tokens is forgiving on
// input; String always emits the canonical spacing.
func ParseSpec(input string) (Spec, error) {
	sc := spectext.NewScanner("spec", input)
	sc.Space()
	if sc.EOF() {
		return Spec{}, sc.Errorf("empty input")
	}
	// Look ahead on a copy: a leading word other than "pass" starts a
	// rule.
	if peek := *sc; peek.Run(spectext.Word) == "pass" {
		*sc = peek
		sc.Space()
		if sc.EOF() {
			return Spec{}, nil
		}
		return Spec{}, sc.Errorf("unexpected text after \"pass\": %q", sc.Rest())
	}
	var spec Spec
	for {
		sc.Space()
		if sc.EOF() {
			return spec, nil
		}
		r, err := parseRule(sc)
		if err != nil {
			return Spec{}, err
		}
		spec.Rules = append(spec.Rules, r)
	}
}

func parseRule(sc *spectext.Scanner) (Rule, error) {
	var r Rule
	if !sc.Prefix("on:") {
		return r, sc.Errorf("rule must start with \"on:<phase>\", got %q", sc.Rest())
	}
	name := sc.Run(spectext.Word)
	ph, ok := parsePhase(name)
	if !ok {
		return r, sc.Errorf("unknown phase %q", name)
	}
	r.Trigger.Phase = ph
	args, err := sc.Args("trigger on:"+name, spectext.Word)
	if err != nil {
		return r, err
	}
	for _, a := range args {
		switch {
		case a.Key == "" && a.Val == "rexmit":
			r.Trigger.Rexmit = true
		case a.Key == "min":
			n, err := strconv.Atoi(a.Val)
			if err != nil || n < 0 {
				return r, sc.Errorf("trigger on:%s: bad min %q", name, a.Val)
			}
			r.Trigger.Min = n
		default:
			return r, sc.Errorf("trigger on:%s: unknown argument %q", name, a.Val)
		}
	}
	sc.Space()
	if !sc.Consume('[') {
		return r, sc.Errorf("missing '[' after %s", r.Trigger.String())
	}
	sc.Space()
	if sc.Consume(']') {
		return r, nil
	}
	for {
		sc.Space()
		act, err := parseAction(sc)
		if err != nil {
			return r, err
		}
		r.Actions = append(r.Actions, act)
		sc.Space()
		if sc.Consume(';') {
			continue
		}
		if sc.Consume(']') {
			return r, nil
		}
		if sc.EOF() {
			return r, sc.Errorf("missing ']' to close %s", r.Trigger.String())
		}
		return r, sc.Errorf("expected ';' or ']', got %q", sc.Rest())
	}
}

func parseAction(sc *spectext.Scanner) (Action, error) {
	name := sc.Run(spectext.Word)
	if name == "" {
		return nil, sc.Errorf("expected primitive name, got %q", sc.Rest())
	}
	args, err := sc.Args(name, spectext.Word)
	if err != nil {
		return nil, err
	}
	return buildAction(name, args)
}

// buildAction validates one primitive invocation.
func buildAction(name string, args []spectext.Arg) (Action, error) {
	bad := func(format string, a ...any) (Action, error) {
		return nil, fmt.Errorf("spec: "+name+": "+format, a...)
	}
	switch name {
	case "inject":
		act := InjectAction{Disc: DiscNone}
		kindSet := false
		for _, a := range args {
			switch a.Key {
			case "":
				k, ok := parseInjectKind(a.Val)
				if !ok {
					return bad("unknown kind %q", a.Val)
				}
				act.Kind, kindSet = k, true
			case "disc":
				d, ok := ParseDiscrepancy(a.Val)
				if !ok {
					return bad("unknown discrepancy %q", a.Val)
				}
				act.Disc = d
			default:
				return bad("unknown argument %q", a.Key)
			}
		}
		if !kindSet {
			return bad("missing kind (syn, synack, desync or prefill)")
		}
		return act, nil
	case "teardown":
		act := TeardownAction{Disc: DiscNone}
		flagsSet := false
		for _, a := range args {
			switch a.Key {
			case "flags":
				fl, ok := parseFlagsToken(a.Val)
				if !ok {
					return bad("unknown flags %q", a.Val)
				}
				act.Flags, flagsSet = fl, true
			case "disc":
				d, ok := ParseDiscrepancy(a.Val)
				if !ok {
					return bad("unknown discrepancy %q", a.Val)
				}
				act.Disc = d
			default:
				return bad("unknown argument %q", a.Val)
			}
		}
		if !flagsSet {
			return bad("missing flags (rst, rstack, fin or finack)")
		}
		return act, nil
	case "fragment":
		act := FragmentAction{}
		laySet := false
		for _, a := range args {
			switch a.Key {
			case "":
				switch a.Val {
				case "ip":
					act.Layer, laySet = LayerIP, true
				case "tcp":
					act.Layer, laySet = LayerTCP, true
				default:
					return bad("unknown layer %q", a.Val)
				}
			case "at":
				n, err := strconv.Atoi(a.Val)
				if err != nil || n <= 0 {
					return bad("bad at %q", a.Val)
				}
				act.At = n
			default:
				return bad("unknown argument %q", a.Val)
			}
		}
		if !laySet {
			return bad("missing layer (ip or tcp)")
		}
		if act.Layer == LayerTCP && act.At == 0 {
			act.At = 4
		}
		return act, nil
	case "reorder":
		if len(args) != 1 || args[0].Key != "" || args[0].Val != "head-last" {
			return bad("want reorder(head-last)")
		}
		return ReorderAction{}, nil
	case "duplicate":
		act := DuplicateAction{Fill: FillJunk, Pos: PosBefore}
		selSet := false
		for _, a := range args {
			switch a.Key {
			case "":
				if a.Val != "tails" {
					return bad("unknown selector %q", a.Val)
				}
				selSet = true
			case "fill":
				switch a.Val {
				case "junk":
					act.Fill = FillJunk
				case "copy":
					act.Fill = FillCopy
				default:
					return bad("unknown fill %q", a.Val)
				}
			case "pos":
				switch a.Val {
				case "before":
					act.Pos = PosBefore
				case "after":
					act.Pos = PosAfter
				default:
					return bad("unknown pos %q", a.Val)
				}
			default:
				return bad("unknown argument %q", a.Val)
			}
		}
		if !selSet {
			return bad("missing selector (tails)")
		}
		return act, nil
	case "tamper":
		if len(args) != 1 {
			return bad("want exactly one of md5, ttl=N, flags=F, seq=±N")
		}
		a := args[0]
		switch {
		case a.Key == "" && a.Val == "md5":
			return TamperAction{Kind: TamperMD5}, nil
		case a.Key == "ttl":
			n, err := strconv.Atoi(a.Val)
			if err != nil || n < 1 || n > 255 {
				return bad("bad ttl %q", a.Val)
			}
			return TamperAction{Kind: TamperTTL, TTL: uint8(n)}, nil
		case a.Key == "flags":
			fl, ok := parseFlagsToken(a.Val)
			if !ok {
				return bad("unknown flags %q", a.Val)
			}
			return TamperAction{Kind: TamperFlags, Flags: fl}, nil
		case a.Key == "seq":
			n, err := strconv.Atoi(a.Val)
			if err != nil || n == 0 {
				return bad("bad seq delta %q", a.Val)
			}
			return TamperAction{Kind: TamperSeq, Delta: n}, nil
		default:
			return bad("unknown argument %q", a.Val)
		}
	case "delay":
		if len(args) != 1 || args[0].Key != "ms" {
			return bad("want delay(ms=N)")
		}
		n, err := strconv.Atoi(args[0].Val)
		if err != nil || n <= 0 {
			return bad("bad ms %q", args[0].Val)
		}
		return DelayAction{Ms: n}, nil
	default:
		return nil, fmt.Errorf("spec: unknown primitive %q", name)
	}
}
