package experiment

import (
	"testing"
	"time"

	"intango/internal/tcpstack"
	"intango/internal/trace"
)

// pinnedGFW2017 is the measured gfw2017 with every sampled probability
// pinned, as `make intangd-smoke` runs it: detection never misses, RSTs
// always tear the TCB down and reassembly is first-wins.
const pinnedGFW2017 = "tcb:evolved detect:keywords(ultrasurf) " +
	"react:reset(type1) react:reset(type2) react:block(dur=1m30s) " +
	"param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)"

// serverChallengeACKs returns the virtual times at which the server
// answered a segment it classified for an RFC 5961 challenge ACK: the
// server's sends whose lineage parent is such a segment.
func serverChallengeACKs(tr *trace.Trace) []time.Duration {
	challenged := map[uint32]bool{}
	for _, e := range tr.Events {
		if e.Subsys == "tcpstack" && (e.Verb == "rst-in-window-challenge-ack" || e.Verb == "syn-challenge-ack") {
			challenged[e.Pkt] = true
		}
	}
	var at []time.Duration
	for _, p := range tr.Packets {
		if p.Where == "server" && p.Event == "send" && challenged[p.Parent] {
			at = append(at, p.Time)
		}
	}
	return at
}

// TestCensoredFetchBoundsChallengeACKs: after a detection the censor
// answers every packet of the pair with reset volleys, and a Linux 4.4
// server answers the in-window ones with challenge ACKs, each of which
// draws another volley. The kernel's per-socket limit breaks that loop:
// the server sends at most one challenge ACK per 500 ms of virtual time,
// and the fetch still ends in Failure-2.
func TestCensoredFetchBoundsChallengeACKs(t *testing.T) {
	r := NewRunner(42)
	r.Censor = pinnedGFW2017
	vp := VantagePoints()[0]
	srv := controlledServers(r, 1)[0]
	srv.Stack = tcpstack.Linux44()
	total := 0
	for trial := 0; trial < 20; trial++ {
		out, tr := r.RunOneCausal(vp, srv, nil, "", true, trial)
		if out != Failure2 {
			t.Errorf("trial %d: outcome %v, want Failure-2", trial, out)
		}
		at := serverChallengeACKs(tr)
		total += len(at)
		for i := 1; i < len(at); i++ {
			if gap := at[i] - at[i-1]; gap < 500*time.Millisecond {
				t.Fatalf("trial %d: challenge ACKs at %v and %v, %v apart; want at most one per 500ms (all: %v)",
					trial, at[i-1], at[i], gap, at)
			}
		}
	}
	if total == 0 {
		t.Fatal("no trial drew a server challenge ACK; the loop this bounds never started")
	}
}
