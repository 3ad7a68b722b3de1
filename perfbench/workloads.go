package main

// The three workloads. Each stresses a different slice of the stack:
//
//	campaign  short trials end to end: topology build, handshake,
//	          strategy volley, censor verdict — netem, tcpstack, core
//	          and the GFW model at the parallel campaign runner's pace
//	goodput   long bulk uploads through a rated, queued link: the
//	          shaper, congestion control and per-segment strategy work
//	          dominate, the per-trial set-up does not
//	daemon    real net/http fetches through the live proxy in real
//	          time: the userspace stack, the device pipe, the flow
//	          table and the wall-clock pumps, under 16 clients
//
// A simulated request draws its server population from its own seed,
// and what a trial costs depends heavily on the servers it meets
// (stacks, hop counts, censor models, which strategies complete an
// upload): two-server populations differ in cost by up to 3x. So that
// a run's figures do not hang on a few servers, every request of a run
// uses a fresh input seed derived from --seed, and a run covers a few
// hundred servers.
//
// Every request's result is checked for shape (row counts, tallies
// that add up, goodput within the link rate); before the timed part,
// the run's first input is also checked against a reference: a serial
// campaign, a repeated goodput run. Fetches are checked by status and
// body, and the daemon's check shows that the same fetch without a
// strategy is reset by the censor.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"time"

	"intango/internal/device/uis"
	"intango/internal/experiment"
	"intango/internal/intangd"
	"intango/internal/packet"
)

// inputSeed derives the seed of a run's n-th request.
func inputSeed(seed int64, n int) int64 { return seed*1_000_000 + int64(n) }

// campaignScale is one Table 1 sweep: 15 strategies × 2 keyword arms ×
// 11 vantage points × 2 servers = 660 trials. Two servers a request
// keep the slow tail (p90) from hanging on single costly servers.
var campaignScale = experiment.Scale{VPs: 11, Servers: 2, Trials: 1}

// campaignWorkers fixes the parallel runner's width so every machine
// runs the sweep alike. One worker: on a shared two-CPU machine a
// second worker made run-to-run spread more than twice as wide.
const campaignWorkers = 1

// checkRows checks the shape of a Table 1 result for scale sc.
func checkRows(rows []experiment.Table1Row, sc experiment.Scale) error {
	const strategies = 15
	if len(rows) != strategies {
		return fmt.Errorf("%d rows, want %d", len(rows), strategies)
	}
	per := sc.VPs * sc.Servers * sc.Trials
	for _, row := range rows {
		for _, t := range []experiment.Tally{row.Sensitive, row.Clean} {
			if t.Total != per || t.Success+t.Failure1+t.Failure2 != t.Total {
				return fmt.Errorf("%s/%s: tally %+v, want %d trials", row.Strategy, row.Discrepancy, t, per)
			}
		}
	}
	return nil
}

// trials counts the trials folded into Table 1 rows.
func trials(rows []experiment.Table1Row) int {
	n := 0
	for _, row := range rows {
		n += row.Sensitive.Total + row.Clean.Total
	}
	return n
}

// runCampaign runs one Table 1 sweep for an input seed and checks its
// shape.
func runCampaign(seed int64) ([]experiment.Table1Row, error) {
	r := experiment.NewRunner(seed)
	r.Workers = campaignWorkers
	rows := experiment.RunTable1Parallel(r, campaignScale)
	if err := checkRows(rows, campaignScale); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return rows, nil
}

func checkCampaign(seed int64) error {
	s := inputSeed(seed, 0)
	rows, err := runCampaign(s)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(rows, experiment.RunTable1(experiment.NewRunner(s), campaignScale)) {
		return errors.New("campaign: parallel rows differ from the serial run")
	}
	return nil
}

// openCampaign's request is a fresh campaign: a new runner over a new
// server population.
func openCampaign(seed int64) (func(int) (int, error), func() error, error) {
	return func(n int) (int, error) {
		rows, err := runCampaign(inputSeed(seed, n))
		return trials(rows), err
	}, nil, nil
}

// goodputScale runs the goodput matrix over three servers (the most it
// takes): 5 strategies × 3 servers × 2 link arms (unshaped,
// bw=1mbit,queue=16) = 30 uploads of 64 KiB each.
var goodputScale = experiment.Scale{Servers: 3, Trials: 1}

// goodputLinkBits is the constrained arm's link rate (bw=1mbit): no
// upload can deliver data faster.
const goodputLinkBits = 1_000_000

// runGoodput runs the goodput matrix for one input seed and checks
// its shape. Whether a given strategy completes an upload depends on
// the servers drawn (an insertion strategy can fail against some
// stacks), so the check is on what must always hold: every strategy
// ran every trial, none beat the constrained link's rate, and some
// upload got through on both links.
func runGoodput(seed int64) ([]experiment.GoodputRow, error) {
	rows := experiment.RunGoodput(experiment.NewRunner(seed), goodputScale)
	if len(rows) != 5 {
		return nil, fmt.Errorf("goodput: %d rows, want 5", len(rows))
	}
	delivered := false
	for _, row := range rows {
		if row.Trials != goodputScale.Servers*goodputScale.Trials {
			return nil, fmt.Errorf("goodput: %s ran %d trials", row.Strategy, row.Trials)
		}
		if row.ConstrainedBps < 0 || row.ConstrainedBps > goodputLinkBits || row.UnconstrainedBps < 0 {
			return nil, fmt.Errorf("goodput: %s: %d bps unshaped, %d bps on a %d bps link",
				row.Strategy, row.UnconstrainedBps, row.ConstrainedBps, goodputLinkBits)
		}
		delivered = delivered || (row.UnconstrainedBps > 0 && row.ConstrainedBps > 0)
	}
	if !delivered {
		return nil, errors.New("goodput: no strategy delivered on both links")
	}
	return rows, nil
}

func checkGoodput(seed int64) error {
	first, err := runGoodput(inputSeed(seed, 0))
	if err != nil {
		return err
	}
	again, err := runGoodput(inputSeed(seed, 0))
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(first, again) {
		return errors.New("goodput: two runs of one seed differ")
	}
	return nil
}

func openGoodput(seed int64) (func(int) (int, error), func() error, error) {
	return func(n int) (int, error) {
		rows, err := runGoodput(inputSeed(seed, n))
		if err != nil {
			return 0, err
		}
		units := 0
		for _, row := range rows {
			units += 2 * row.Trials // each trial uploads once per link arm
		}
		return units, nil
	}, nil, nil
}

// daemonCensor is gfw2017 with every sampled probability pinned, so a
// fetch's outcome depends on the strategy alone.
const daemonCensor = "tcb:evolved detect:keywords(ultrasurf) react:reset(type1) react:reset(type2) " +
	"react:block(dur=1m30s) param:miss(p=0) param:resync(p=0) param:seglastwins(p=0)"

// daemonClients is the size of the closed loop: each client opens a
// new connection per fetch, so every fetch is a new flow through the
// proxy. No deployment or caller supplies this figure. It was chosen
// to keep run-to-run spread low: with four clients the pumps' idle
// cost dominated CPU per fetch and made it spread twice as wide.
//
// The daemon runs in real time (the default TimeScale of 1), so a
// fetch mostly waits out the proxy's simulated hop delays (an 18 ms
// round trip) and the 1 ms clock-pump ticks, and with 16 clients the
// proxy is far from busy: latency and fetches per second follow those
// timers, and cpu_us_per_unit is the figure that follows the code.
// Compressing virtual time to make the proxy busy broke the workload:
// with TimeScale 20 and 32 clients, a fifth of the fetches over a 20 s
// run were reset by the censor (the cause was not traced; a wall-clock
// stall becomes twenty times longer in virtual time).
const daemonClients = 16

type daemon struct {
	p     *intangd.Proxy
	stack *uis.Stack
	hc    *http.Client
}

// bootDaemon starts a proxy under strategy and a userspace stack with
// a net/http client on its client device.
func bootDaemon(seed int64, strategy string) (*daemon, error) {
	p, err := intangd.New(intangd.Config{
		Censor:   daemonCensor,
		Strategy: strategy,
		Seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	stack := uis.New(p.ClientDevice(), uis.Config{
		Addr:  p.ClientAddr(),
		Seed:  seed + 1,
		Hosts: map[string]packet.Addr{"origin.example": p.ServerAddr()},
	})
	hc := &http.Client{
		Transport: &http.Transport{DialContext: stack.DialContext, DisableKeepAlives: true},
		Timeout:   15 * time.Second,
	}
	return &daemon{p: p, stack: stack, hc: hc}, nil
}

// fetch GETs a URL carrying the censored keyword; it succeeds only if
// the strategy got the request past the censor.
func (d *daemon) fetch(id int64) error {
	url := fmt.Sprintf("http://origin.example/search?q=ultrasurf&id=%d", id)
	resp, err := d.hc.Get(url)
	if err != nil {
		return fmt.Errorf("daemon: %w", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("daemon: read body: %w", err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("it works")) {
		return fmt.Errorf("daemon: got %d %q", resp.StatusCode, body)
	}
	return nil
}

func (d *daemon) close() error {
	err := d.stack.Close()
	if perr := d.p.Close(); err == nil {
		err = perr
	}
	return err
}

// checkDaemon shows that the fetch needs the strategy: with none, the
// censor resets it.
func checkDaemon(seed int64) error {
	d, err := bootDaemon(seed, "")
	if err != nil {
		return err
	}
	defer d.close()
	if err := d.fetch(0); err == nil {
		return errors.New("daemon: the keyword fetch got through with no strategy")
	}
	if d.p.CensorStat("inject-type1")+d.p.CensorStat("inject-type2") == 0 {
		return errors.New("daemon: the fetch with no strategy failed, but the censor injected no reset")
	}
	return nil
}

func openDaemon(seed int64) (func(int) (int, error), func() error, error) {
	d, err := bootDaemon(seed, "teardown-reversal")
	if err != nil {
		return nil, nil, err
	}
	base := seed << 20
	return func(n int) (int, error) {
		if err := d.fetch(base + int64(n)); err != nil {
			return 0, err
		}
		return 1, nil
	}, d.close, nil
}
