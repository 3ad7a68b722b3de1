package intango_test

import (
	"fmt"
	"sort"
	"strings"

	"intango"
)

// The canonical flow: a sensitive request is censored, the Fig. 4
// combined strategy evades.
func ExamplePlayground() {
	pg := intango.NewPlayground(intango.PlaygroundConfig{Seed: 1})

	conn := pg.Fetch("/?q=ultrasurf", nil)
	fmt.Println("plain:", pg.Outcome(conn))

	pg.WaitOutBlock()
	conn = pg.Fetch("/?q=ultrasurf", intango.Strategies()["teardown-reversal"])
	fmt.Println("evaded:", pg.Outcome(conn))
	// Output:
	// plain: failure-2
	// evaded: success
}

// The headline finding of the paper: the 2013-era fake-SYN evasion
// works against the old GFW model and fails against the evolved one.
func ExamplePlayground_modelEvolution() {
	strategy := intango.Strategies()["tcb-creation-syn/ttl"]

	old := intango.NewPlayground(intango.PlaygroundConfig{
		Seed: 2,
		GFW: intango.GFWConfig{
			Model:             intango.ModelKhattak2013,
			Keywords:          []string{"ultrasurf"},
			DetectionMissProb: -1,
		},
	})
	fmt.Println("2013 model:", old.Outcome(old.Fetch("/?q=ultrasurf", strategy)))

	evolved := intango.NewPlayground(intango.PlaygroundConfig{Seed: 2})
	fmt.Println("2017 model:", evolved.Outcome(evolved.Fetch("/?q=ultrasurf", strategy)))
	// Output:
	// 2013 model: success
	// 2017 model: failure-2
}

// Every §5/§7 strategy beats the evolved model on a clean path.
func ExampleStrategies() {
	for _, name := range []string{
		"improved-teardown", "improved-prefill",
		"creation-resync-desync", "teardown-reversal",
	} {
		pg := intango.NewPlayground(intango.PlaygroundConfig{Seed: 3})
		conn := pg.Fetch("/?q=ultrasurf", intango.Strategies()[name])
		fmt.Printf("%s: %s\n", name, pg.Outcome(conn))
	}
	// Output:
	// improved-teardown: success
	// improved-prefill: success
	// creation-resync-desync: success
	// teardown-reversal: success
}

// Every registered strategy against both GFW generations on one path:
// a one-screen recreation of the arc from Table 1 to Table 4.
func ExampleStrategies_modelMatrix() {
	strategies := intango.Strategies()
	names := make([]string, 0, len(strategies))
	for name := range strategies {
		names = append(names, name)
	}
	sort.Strings(names)

	models := []struct {
		label string
		model intango.GFWModel
	}{
		{"2013 model", intango.ModelKhattak2013},
		{"2017 model", intango.ModelEvolved2017},
	}

	// Each row is padded into columns; an Output comment holds no
	// trailing spaces, so they are trimmed.
	printRow := func(row string) { fmt.Println(strings.TrimRight(row, " ")) }
	printRow(fmt.Sprintf("%-30s %-12s %-12s", "strategy", models[0].label, models[1].label))
	for _, name := range names {
		row := fmt.Sprintf("%-30s", name)
		for _, m := range models {
			pg := intango.NewPlayground(intango.PlaygroundConfig{
				Seed: 7,
				GFW: intango.GFWConfig{
					Model:             m.model,
					Keywords:          []string{"ultrasurf"},
					DetectionMissProb: -1,
				},
			})
			conn := pg.Fetch("/?q=ultrasurf", strategies[name])
			row += fmt.Sprintf(" %-12s", pg.Outcome(conn))
		}
		printRow(row)
	}
	fmt.Println("\nNote how every pre-2017 strategy that relied on TCB creation or")
	fmt.Println("FIN teardown flipped to failure-2 against the evolved model, while")
	fmt.Println("the §5 strategies (resync/desync, reversal, improved-*) beat both.")
	// Output:
	// strategy                       2013 model   2017 model
	// creation-resync-desync         success      success
	// improved-prefill               success      success
	// improved-teardown              success      success
	// md5-request                    failure-2    failure-2
	// none                           failure-2    failure-2
	// ooo-ipfrag                     success      success
	// ooo-tcpseg                     success      failure-2
	// prefill/bad-ack                success      success
	// prefill/bad-checksum           success      success
	// prefill/no-flag                success      success
	// prefill/ttl                    success      success
	// tcb-creation-syn/bad-checksum  success      failure-2
	// tcb-creation-syn/ttl           success      failure-2
	// teardown-fin/bad-checksum      success      failure-2
	// teardown-fin/ttl               success      failure-2
	// teardown-reversal              success      success
	// teardown-rst/bad-checksum      success      success
	// teardown-rst/ttl               success      success
	// teardown-rstack/bad-checksum   success      success
	// teardown-rstack/ttl            success      success
	// west-chamber                   failure-1    failure-1
	//
	// Note how every pre-2017 strategy that relied on TCB creation or
	// FIN teardown flipped to failure-2 against the evolved model, while
	// the §5 strategies (resync/desync, reversal, improved-*) beat both.
}
