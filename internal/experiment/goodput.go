package experiment

import (
	"fmt"
	"io"
	"sort"
	"time"

	"intango/internal/appsim"
	"intango/internal/core"
	"intango/internal/obs"
	"intango/internal/tcpstack"
	"intango/internal/topo"
)

// This file measures goodput as a first-class outcome: how much of a
// bandwidth-constrained uplink an evasion strategy leaves for actual
// data. Duplicate/reorder-heavy strategies (out-of-order IP fragments,
// overlapping TCP segments) multiply every client payload packet, so
// on a rated link (netem `bw=`) with a finite router queue they
// contend with their own transfer; insertion-only strategies spend a
// handful of crafted packets at the handshake and first payload and
// cost almost nothing. An unconstrained link shows no difference —
// which is exactly why the paper's success rates never surfaced this
// cost and a congestion-real substrate does.

// GoodputUploadBytes is the upload size of one goodput trial. At the
// constrained arm's 1 mbit/s it takes ~0.5 s of virtual time to
// deliver — long enough for congestion control to reach steady state,
// short enough to keep the campaign fast.
const GoodputUploadBytes = 64 << 10

// GoodputConstraint is the constrained arm's client-link shaping:
// the acceptance scenario's `bw=1mbit queue=16`.
const (
	goodputRateBits  = 1_000_000
	goodputQueuePkts = 16
)

// GoodputRow is one strategy's goodput across both link arms, in bits
// per second of virtual time (medians over the campaign's trials).
type GoodputRow struct {
	Strategy string
	// Class is "reorder" for strategies that duplicate or split client
	// payload packets, "inject" for insertion-only ones.
	Class string
	// UnconstrainedBps and ConstrainedBps are median goodputs on the
	// unshaped and on the bw=1mbit,queue=16 client link.
	UnconstrainedBps int64
	ConstrainedBps   int64
	// Success counts trials (out of Trials) whose upload completed on
	// the constrained link: HTTP 200 back, no censor interference.
	Success, Trials int
}

// goodputStrategies is the demo matrix: the two duplicate/reorder
// primitives against three insertion-only strategies, each the
// registered strategy of its name unless a spec is given.
//
// The reorder entries are the sustained forms of the registry's
// one-shot specs: the trigger fires on every payload segment, the way
// real client-side implementations apply them (the GFW's reassembly
// must stay desynchronized for the whole flow, not just its first
// segment). The IP-fragment variant uses 512-byte fragment chunks —
// the registry's header-sized fragments turn one MSS segment into a
// 60-packet burst, which no finite router queue survives. The inject
// entries are the registry strategies unchanged.
func goodputStrategies() []struct{ name, class, spec string } {
	return []struct{ name, class, spec string }{
		{"ooo-ipfrag", "reorder", "on:payload(min=16)[fragment(ip,at=512); reorder(head-last); duplicate(tails,fill=junk,pos=before)]"},
		{"ooo-tcpseg", "reorder", "on:payload(min=8)[fragment(tcp,at=4); reorder(head-last); duplicate(tails,fill=junk,pos=after)]"},
		{"teardown-rst/ttl", "inject", ""},
		{"improved-teardown", "inject", ""},
		{"prefill/ttl", "inject", ""},
	}
}

// goodputFactory resolves the demo matrix's strategy named name.
func goodputFactory(name string) core.Factory {
	for _, s := range goodputStrategies() {
		if s.name == name {
			f, _ := mustResolve(s.name, s.spec)
			return f
		}
	}
	panic("experiment: no goodput strategy " + name)
}

// goodputProgram returns the constrained arm's program for (vp, srv):
// the pair's derived linear chain at its measured hop count with the
// client access link shaped to the arm's rate and queue — the chain
// the unconstrained arm compiles, plus `bw=`. It is cached with the
// derived programs.
func (r *Runner) goodputProgram(vp VantagePoint, srv Server) *topo.Program {
	key := shapeKey(vp, srv, srv.Hops)
	key.shaped = true
	return r.program(key)
}

// goodputUpload renders the upload a goodput trial sends to srv. The
// connection copies what it is given, so one rendering serves every
// trial against srv.
func goodputUpload(srv Server) []byte {
	return appsim.HTTPUpload(srv.Name, "/upload", GoodputUploadBytes)
}

// runGoodputTrial sends upload (goodputUpload's rendering for srv)
// through one rig, built on arena a, on topology prog (nil for the
// pair's derived path) and returns the goodput observed at the server:
// the bytes it delivered in order, over the virtual-time window from
// first to last delivery. All arithmetic is integer on virtual time, so
// serial and parallel campaigns measure bit-identically. A non-nil reg
// additionally folds the trial into the goodput.bps / goodput.bytes
// histograms.
func (r *Runner) runGoodputTrial(vp VantagePoint, srv Server, prog *topo.Program, factory core.Factory, upload []byte, trial int, reg *obs.Registry, a *arena) (bps, delivered int64, out Outcome) {
	trialSeed := r.pairSeed(vp, srv) ^ int64(uint64(trial)*0x9e3779b97f4a7c15)
	rg := r.build(vp, srv, prog, r.Censor, trialSeed, a)
	if reg != nil {
		rg.attachObs(obs.New(reg, obs.NewRecorder(obs.DefaultRingSize, rg.sim.Now)))
	}
	rg.arm(&srv, factory)
	conn := rg.cli.Connect(srv.Addr, 80)
	rg.sim.RunFor(connectWindow)
	if conn.State() == tcpstack.Established {
		// The upload carries no sensitive keyword: the matrix isolates
		// what each strategy's wire pattern costs on a congested link,
		// with the censor present but never triggered. (With a keyword
		// every fragment-based trial dies to the Table 2 middleboxes —
		// dropped on Aliyun paths, reassembled ahead of the GFW
		// elsewhere — and the goodput column would measure censorship,
		// not congestion.)
		conn.Write(upload)
	}
	rg.sim.RunFor(30 * time.Second)

	if sc, ok := rg.srv.Conn(80, vp.Addr, conn.LocalPort()); ok {
		delivered = int64(len(sc.Received()))
		if window := sc.LastDataAt - sc.FirstDataAt; window > 0 && delivered > 0 {
			bps = delivered * 8 * int64(time.Second) / int64(window)
		}
	}
	if reg != nil {
		reg.Histogram("goodput.bps", obs.GoodputBuckets).Observe(uint64(bps))
		reg.Histogram("goodput.bytes", obs.TransferBuckets).Observe(uint64(GoodputUploadBytes))
		reg.Inc("goodput.trials")
	}
	return bps, delivered, classify(rg, conn, true)
}

// RunGoodput runs the goodput matrix: every demo strategy through an
// upload on the unconstrained and on the bw=1mbit,queue=16 client
// link, over a controlled server slice. Trials feed the runner's obs
// registry (when attached), so a health report built afterwards
// carries the goodput histograms. Every trial runs on one arena, as a
// campaign worker's do, and each server's upload body is rendered once.
func RunGoodput(r *Runner, sc Scale) []GoodputRow {
	// The QCloud vantage point: its Table 2 middlebox reassembles IP
	// fragments (after the shaped access link, so the fragment burst
	// still pays the bandwidth toll) instead of discarding them the way
	// the Aliyun profile does — fragment-based strategies can finish an
	// upload at all.
	vp := VantagePoints()[6]
	nsrv := sc.Servers
	if nsrv > 3 {
		nsrv = 3
	}
	servers := controlledServers(r, nsrv)
	uploads := make([][]byte, len(servers))
	for i, srv := range servers {
		uploads[i] = goodputUpload(srv)
	}
	a := r.newArena()
	var reg *obs.Registry
	if r.Obs != nil {
		reg = r.Obs.Registry
	}

	median := func(vals []int64) int64 {
		if len(vals) == 0 {
			return 0
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		return vals[len(vals)/2]
	}

	var rows []GoodputRow
	for _, s := range goodputStrategies() {
		row := GoodputRow{Strategy: s.name, Class: s.class}
		factory, _ := mustResolve(s.name, s.spec)
		var un, con []int64
		for i, srv := range servers {
			for trial := 0; trial < sc.Trials; trial++ {
				bps, _, _ := r.runGoodputTrial(vp, srv, nil, factory, uploads[i], trial, reg, a)
				un = append(un, bps)

				bps, _, out := r.runGoodputTrial(vp, srv, r.goodputProgram(vp, srv), factory, uploads[i], trial, reg, a)
				con = append(con, bps)
				row.Trials++
				if out == Success {
					row.Success++
				}
			}
		}
		row.UnconstrainedBps = median(un)
		row.ConstrainedBps = median(con)
		rows = append(rows, row)
	}
	return rows
}

// FormatGoodput renders the goodput matrix in kbit/s with the
// constrained/unconstrained ratio — the number that separates
// reorder-heavy from insertion-only strategies.
func FormatGoodput(rows []GoodputRow) string {
	out := fmt.Sprintf("%-20s %-8s %14s %14s %7s %9s\n",
		"strategy", "class", "unconstrained", "bw=1mbit,q=16", "ratio", "done")
	for _, row := range rows {
		ratio := 0.0
		if row.UnconstrainedBps > 0 {
			ratio = float64(row.ConstrainedBps) / float64(row.UnconstrainedBps)
		}
		out += fmt.Sprintf("%-20s %-8s %11d kbps %11d kbps %7.3f %5d/%-3d\n",
			row.Strategy, row.Class,
			row.UnconstrainedBps/1000, row.ConstrainedBps/1000,
			ratio, row.Success, row.Trials)
	}
	return out
}

// WriteGoodputCampaign runs and renders the goodput matrix — what
// `cmd/tables -what goodput` prints.
func WriteGoodputCampaign(w io.Writer, r *Runner, sc Scale) {
	nsrv := sc.Servers
	if nsrv > 3 {
		nsrv = 3
	}
	fmt.Fprintf(w, "== goodput under congestion (%d KiB upload, %d servers × %d trials, median kbit/s of virtual time) ==\n",
		GoodputUploadBytes>>10, nsrv, sc.Trials)
	fmt.Fprint(w, FormatGoodput(RunGoodput(r, sc)))
	fmt.Fprintln(w)
}
