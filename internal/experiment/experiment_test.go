package experiment

import (
	"strings"
	"testing"
	"time"

	"intango/internal/core"
	"intango/internal/intang"
	"intango/internal/middlebox"
	"intango/internal/packet"
	"intango/internal/tcpstack"
)

func TestPopulationMatchesSection33(t *testing.T) {
	vps := VantagePoints()
	if len(vps) != 11 {
		t.Fatalf("vantage points = %d, want 11", len(vps))
	}
	byISP := map[string]int{}
	cities := map[string]bool{}
	torUnfiltered := 0
	for _, vp := range vps {
		byISP[vp.ISP]++
		cities[vp.City] = true
		if !vp.TorFiltered {
			torUnfiltered++
		}
	}
	if byISP["aliyun"] != 6 || byISP["qcloud"] != 3 || byISP["unicom"] != 2 {
		t.Fatalf("ISP split = %v", byISP)
	}
	if torUnfiltered != 4 {
		t.Fatalf("unfiltered Tor VPs = %d, want 4 (§7.3)", torUnfiltered)
	}
	servers := Servers(77, DefaultCalibration(), 1)
	if len(servers) != 77 {
		t.Fatalf("servers = %d", len(servers))
	}
	seen := map[string]bool{}
	for _, s := range servers {
		if seen[s.Addr.String()] {
			t.Fatalf("duplicate server address %v", s.Addr)
		}
		seen[s.Addr.String()] = true
		if s.GFWHop >= s.Hops {
			t.Fatalf("GFW hop %d beyond path %d", s.GFWHop, s.Hops)
		}
	}
	// Outside servers put the GFW near the server (§7.1).
	for _, s := range OutsideServers(33, DefaultCalibration(), 1) {
		if s.Hops-s.GFWHop > 4 {
			t.Fatalf("outside server GFW hop too far from server: %d/%d", s.GFWHop, s.Hops)
		}
	}
}

func TestServersDeterministic(t *testing.T) {
	a := Servers(10, DefaultCalibration(), 9)
	b := Servers(10, DefaultCalibration(), 9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("server %d differs between identical seeds", i)
		}
	}
}

// TestTable1Shape checks the qualitative findings of §3.4 at reduced
// scale: which strategies win, which fail, and how.
func TestTable1Shape(t *testing.T) {
	r := NewRunner(42)
	rows := RunTable1(r, Scale{VPs: 11, Servers: 12, Trials: 2})
	byKey := map[string]Table1Row{}
	for _, row := range rows {
		byKey[row.Strategy+"/"+row.Discrepancy] = row
	}
	rate := func(key string) (s, f1, f2 float64) {
		row, ok := byKey[key]
		if !ok {
			t.Fatalf("missing row %q", key)
		}
		return row.Sensitive.Rates()
	}

	// No strategy: nearly everything censored.
	s, _, f2 := rate("No Strategy/N/A")
	if s > 10 || f2 < 85 {
		t.Errorf("no strategy: s=%.1f f2=%.1f", s, f2)
	}
	// TCB creation no longer works (<25%, high F2).
	s, _, f2 = rate("TCB creation with SYN/TTL")
	if s > 25 || f2 < 60 {
		t.Errorf("tcb creation: s=%.1f f2=%.1f", s, f2)
	}
	// In-order prefill still works well (>80%).
	if s, _, _ = rate("Reassembly in-order data/TTL"); s < 80 {
		t.Errorf("prefill ttl: s=%.1f", s)
	}
	// IP fragmentation: dominated by middlebox interference — high F1
	// (Aliyun drops) and high F2 (reassembling profiles).
	s, f1, f2 := rate("Reassembly out-of-order data/IP fragments")
	if s > 10 || f1 < 35 || f2 < 25 {
		t.Errorf("ip frags: s=%.1f f1=%.1f f2=%.1f", s, f1, f2)
	}
	// Teardown with RST: works but imperfect (~70%, noticeable F2).
	s, _, f2 = rate("TCB teardown with RST/TTL")
	if s < 55 || s > 90 || f2 < 10 {
		t.Errorf("teardown rst: s=%.1f f2=%.1f", s, f2)
	}
	// Teardown with FIN: defeated by the evolved model.
	s, _, f2 = rate("TCB teardown with FIN/TTL")
	if s > 30 || f2 < 60 {
		t.Errorf("teardown fin: s=%.1f f2=%.1f", s, f2)
	}
	// Without the keyword, traffic flows freely for every strategy —
	// except IP fragmentation, where the paper itself measured only
	// 45.1% clean success (Aliyun middleboxes discard the fragments).
	for key, row := range byKey {
		cs, _, _ := row.Clean.Rates()
		if key == "Reassembly out-of-order data/IP fragments" {
			if cs < 30 || cs > 60 {
				t.Errorf("%s: clean success %.1f, want ≈45 (paper 45.1)", key, cs)
			}
			continue
		}
		if cs < 85 {
			t.Errorf("%s: clean success %.1f", key, cs)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	results := RunTable2(5)
	get := func(typ string, prof middlebox.ProfileName) string {
		for _, res := range results {
			if res.PacketType == typ {
				return res.Behaviour[prof]
			}
		}
		t.Fatalf("missing %q", typ)
		return ""
	}
	want := []struct {
		typ  string
		prof middlebox.ProfileName
		val  string
	}{
		{"IP fragments", middlebox.ProfileAliyun, "Discarded"},
		{"IP fragments", middlebox.ProfileQCloud, "Reassembled"},
		{"IP fragments", middlebox.ProfileUnicomSJZ, "Reassembled"},
		{"IP fragments", middlebox.ProfileUnicomTJ, "Reassembled"},
		{"Wrong TCP checksum", middlebox.ProfileAliyun, "Pass"},
		{"Wrong TCP checksum", middlebox.ProfileUnicomTJ, "Dropped"},
		{"No TCP flag", middlebox.ProfileQCloud, "Pass"},
		{"No TCP flag", middlebox.ProfileUnicomTJ, "Dropped"},
		{"RST packets", middlebox.ProfileAliyun, "Pass"},
		{"RST packets", middlebox.ProfileQCloud, "Sometimes dropped"},
		{"FIN packets", middlebox.ProfileAliyun, "Sometimes dropped"},
		{"FIN packets", middlebox.ProfileQCloud, "Pass"},
		{"FIN packets", middlebox.ProfileUnicomSJZ, "Dropped"},
		{"FIN packets", middlebox.ProfileUnicomTJ, "Dropped"},
	}
	for _, w := range want {
		if got := get(w.typ, w.prof); got != w.val {
			t.Errorf("%s @ %s = %q, want %q", w.typ, w.prof, got, w.val)
		}
	}
	if out := FormatTable2(results); !strings.Contains(out, "Aliyun(6/11)") {
		t.Error("table formatting missing header")
	}
}

func TestTable4ShapeInsideChina(t *testing.T) {
	r := NewRunner(42)
	rows := RunTable4(r, VantagePoints(), Servers(10, r.Cal, 42), 2)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if row.Success[2] < 85 {
			t.Errorf("%s: avg success %.1f, want ≥85 (paper ≥94)", row.Strategy, row.Success[2])
		}
		if row.Failure2[2] > 10 {
			t.Errorf("%s: avg F2 %.1f, want small", row.Strategy, row.Failure2[2])
		}
		if row.Success[0] > row.Success[1] {
			t.Errorf("%s: min > max", row.Strategy)
		}
	}
	out := FormatTable4("Inside China", rows)
	if !strings.Contains(out, "TCB Teardown + TCB Reversal") {
		t.Error("format missing strategy row")
	}
}

func TestTable4INTANGBeatsFixedStrategies(t *testing.T) {
	r := NewRunner(42)
	vps := VantagePoints()[:4]
	servers := Servers(6, r.Cal, 42)
	row := RunTable4INTANG(r, vps, servers, 6)
	if row.Success[2] < 90 {
		t.Errorf("INTANG avg success %.1f, want ≥90 (paper 98.3)", row.Success[2])
	}
}

func TestTable4OutsideChinaHarder(t *testing.T) {
	r := NewRunner(42)
	inside := RunTable4(r, VantagePoints()[:4], Servers(8, r.Cal, 42), 2)
	outside := RunTable4(r, OutsideVantagePoints(), OutsideServers(8, r.Cal, 42), 2)
	// §7.1: outside China the TTL-dependent strategies degrade (GFW
	// co-located with servers); the MD5/timestamp-based improved
	// prefill holds up best.
	insideAvg, outsideAvg := 0.0, 0.0
	for i := range inside {
		insideAvg += inside[i].Success[2]
		outsideAvg += outside[i].Success[2]
	}
	if outsideAvg >= insideAvg {
		t.Errorf("outside (%.1f) should be harder than inside (%.1f)", outsideAvg/4, insideAvg/4)
	}
	var prefill, resync Table4Row
	for _, row := range outside {
		switch row.Strategy {
		case "Improved In-order Data Overlapping":
			prefill = row
		case "TCB Creation + Resync/Desync":
			resync = row
		}
	}
	if prefill.Success[2] < resync.Success[2] {
		t.Errorf("outside: prefill (%.1f) should beat the TTL-heavy resync/desync (%.1f), as in Table 4",
			prefill.Success[2], resync.Success[2])
	}
}

func TestTable6Shape(t *testing.T) {
	r := NewRunner(42)
	rows := RunTable6(r, 4)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, row := range rows {
		if strings.HasPrefix(row.Resolver, "Dyn") {
			if row.ExceptTianjin < 90 {
				t.Errorf("%s except-TJ = %.1f, want ≥90 (paper ≥98.6)", row.Resolver, row.ExceptTianjin)
			}
			if row.All >= row.ExceptTianjin {
				t.Errorf("%s: Tianjin should drag the overall rate down (%.1f vs %.1f)",
					row.Resolver, row.All, row.ExceptTianjin)
			}
		} else if row.All < 99 {
			// OpenDNS paths see no DNS censorship at all (§7.2).
			t.Errorf("%s = %.1f, want ~100", row.Resolver, row.All)
		}
	}
	if out := FormatTable6(rows); !strings.Contains(out, "216.146.35.35") {
		t.Error("format missing resolver IP")
	}
}

func TestTorSection73(t *testing.T) {
	r := NewRunner(42)
	results := RunTor(r, 2)
	if len(results) != 11 {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if res.FilteredPath {
			if res.PlainWorks {
				t.Errorf("%s: plain Tor should be blocked on a filtered path", res.VP)
			}
			if !res.IPBlocked {
				t.Errorf("%s: bridge IP should be null-routed after active probing", res.VP)
			}
			if res.INTANGSuccess < 100 {
				t.Errorf("%s: INTANG Tor success %.0f, want 100 (§7.3)", res.VP, res.INTANGSuccess)
			}
		} else {
			if !res.PlainWorks {
				t.Errorf("%s: plain Tor should survive on an unfiltered path", res.VP)
			}
			if res.IPBlocked {
				t.Errorf("%s: no active probing expected", res.VP)
			}
		}
	}
	if out := FormatTor(results); !strings.Contains(out, "INTANG") {
		t.Error("format missing column")
	}

	// On a filtered path, an INTANG-protected session never shows the
	// GFW its handshake, so the prober never null-routes the bridge.
	vp := VantagePoints()[1]
	if !vp.TorFiltered {
		t.Fatalf("%s: want a Tor-filtered path", vp.Name)
	}
	bridge := packet.AddrFrom4(52, 3, 17, 99)
	sim, path, dev := r.torRig(vp, bridge, 100)
	cli := tcpstack.NewStack(vp.Addr, tcpstack.Linux44(), sim)
	it := intang.New(sim, path, cli, intang.Options{Candidates: []string{"improved-teardown"}})
	it.Engine.Env.InsertionTTL = 10
	if !torSession(sim, cli, bridge, 30*time.Minute) {
		t.Fatalf("%s: INTANG-protected Tor session failed", vp.Name)
	}
	sim.RunFor(time.Minute)
	if dev.IsIPBlocked(bridge) {
		t.Errorf("%s: bridge null-routed after an INTANG-protected session", vp.Name)
	}
}

func TestVPNSection73(t *testing.T) {
	r := NewRunner(42)
	results := RunVPN(r)
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	nov := results[0]
	if nov.PlainSurvives || !nov.INTANGSurvives {
		t.Errorf("2016: plain=%v intang=%v, want blocked/rescued", nov.PlainSurvives, nov.INTANGSurvives)
	}
	later := results[1]
	if !later.PlainSurvives || !later.INTANGSurvives {
		t.Errorf("2017: plain=%v intang=%v, want both fine", later.PlainSurvives, later.INTANGSurvives)
	}
	if out := FormatVPN(results); !strings.Contains(out, "DPI") {
		t.Error("format missing column")
	}
}

func TestFiguresRender(t *testing.T) {
	r := NewRunner(42)
	fig1 := Figure1(r)
	if !strings.Contains(fig1, "client") || !strings.Contains(fig1, "server") || !strings.Contains(fig1, "gfw") {
		t.Errorf("fig1:\n%s", fig1)
	}
	fig2 := Figure2(r)
	for _, want := range []string{"main thread", "DNS thread", "fetchOK=true", "dnsForwarded=1"} {
		if !strings.Contains(fig2, want) {
			t.Errorf("fig2 missing %q:\n%s", want, fig2)
		}
	}
	fig3 := Figure3(r)
	for _, want := range []string{"[SYN]", "outcome: success", "TTL expiry"} {
		if !strings.Contains(fig3, want) {
			t.Errorf("fig3 missing %q:\n%s", want, fig3)
		}
	}
	fig4 := Figure4(r)
	for _, want := range []string{"SYN|ACK", "RST", "outcome: success"} {
		if !strings.Contains(fig4, want) {
			t.Errorf("fig4 missing %q:\n%s", want, fig4)
		}
	}
}

func TestRunOneDeterministic(t *testing.T) {
	r := NewRunner(7)
	vp := VantagePoints()[0]
	srv := Servers(1, r.Cal, 7)[0]
	f, _, _ := core.ResolveStrategy("improved-teardown")
	a := r.RunOne(vp, srv, f, true, 3)
	b := r.RunOne(vp, srv, f, true, 3)
	if a != b {
		t.Fatalf("same trial differs: %v vs %v", a, b)
	}
}

func TestTable5AllPreferredConstructionsValidate(t *testing.T) {
	r := NewRunner(42)
	cells := RunTable5(r)
	if len(cells) != 7 {
		t.Fatalf("cells = %d, want 7", len(cells))
	}
	for _, c := range cells {
		if !c.Preferred {
			t.Errorf("%s/%v should be a Table 5 preferred construction", c.PacketType, c.Discrepancy)
		}
		if !c.Validated {
			t.Errorf("%s/%v failed validation", c.PacketType, c.Discrepancy)
		}
	}
	out := FormatTable5(cells)
	if !strings.Contains(out, "Data") || strings.Contains(out, "FAIL") {
		t.Errorf("table:\n%s", out)
	}
}

// TestAblationSection8 checks the §8 countermeasure ladder: what each
// hardening breaks, what it doesn't, and the arms-race move it opens.
func TestAblationSection8(t *testing.T) {
	r := NewRunner(42)
	cells := RunAblation(r)
	get := func(strategy, hardening, server string) Outcome {
		for _, c := range cells {
			if c.Strategy == strategy && c.Hardening == hardening && c.Server == server {
				return c.Outcome
			}
		}
		t.Fatalf("missing cell %s/%s/%s", strategy, hardening, server)
		return Failure1
	}
	const modern, ancient = "linux-4.4", "linux-2.4.37"

	// The measured GFW loses to all four Table 4 strategies.
	for _, s := range []string{"improved-teardown", "improved-prefill", "creation-resync-desync", "teardown-reversal"} {
		if got := get(s, "measured (2017)", modern); got != Success {
			t.Errorf("measured GFW vs %s: %v", s, got)
		}
	}
	// West Chamber's bare teardown kills its own connection (§2).
	if got := get("west-chamber", "measured (2017)", modern); got != Failure1 {
		t.Errorf("west-chamber: %v, want failure-1", got)
	}
	// Checksum validation kills the bad-checksum insertion family.
	if got := get("prefill/bad-checksum", "measured (2017)", modern); got != Success {
		t.Errorf("bad-checksum prefill vs measured: %v", got)
	}
	if got := get("prefill/bad-checksum", "+checksum validation", modern); got != Failure2 {
		t.Errorf("bad-checksum prefill vs hardened: %v, want failure-2", got)
	}
	// MD5 validation opens the §8 counter-move: an MD5-tagged request
	// is invisible to the censor but accepted by pre-RFC-2385 servers.
	if got := get("md5-request", "measured (2017)", modern); got != Failure2 {
		t.Errorf("md5-request vs measured: %v, want failure-2", got)
	}
	if got := get("md5-request", "+md5 validation", ancient); got != Success {
		t.Errorf("md5-request vs hardened + old server: %v, want success", got)
	}
	// ACK-trust defeats desynchronization (the junk range is never
	// acknowledged)...
	if got := get("creation-resync-desync", "+trust-after-server-ack", modern); got != Failure2 {
		t.Errorf("resync-desync vs ack-trust: %v, want failure-2", got)
	}
	// ...but NOT same-range prefill: the server's ACK covers the junk
	// copy's sequence range too, and the censor cannot tell which copy
	// was kept — Ptacek's ambiguity, all the way down.
	if got := get("improved-prefill", "+trust-after-server-ack", modern); got != Success {
		t.Errorf("prefill vs ack-trust: %v, want success (range ambiguity)", got)
	}
	// Teardown-based strategies are untouched by data-trust hardening.
	if got := get("improved-teardown", "+trust-after-server-ack", modern); got != Success {
		t.Errorf("teardown vs ack-trust: %v", got)
	}
	if out := FormatAblation(cells); !strings.Contains(out, "+all of the above") {
		t.Error("format missing hardening block")
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	scale := Scale{VPs: 4, Servers: 4, Trials: 1}
	serial := RunTable1(NewRunner(42), scale)
	parallel := RunTable1Parallel(NewRunner(42), scale)
	if len(serial) != len(parallel) {
		t.Fatalf("row counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Sensitive != parallel[i].Sensitive || serial[i].Clean != parallel[i].Clean {
			t.Fatalf("row %d differs:\nserial   %+v\nparallel %+v", i, serial[i], parallel[i])
		}
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 0 {
		t.Fatal("empty interval")
	}
	// 50/100: symmetric around 0.5, roughly ±0.097.
	lo, hi = WilsonInterval(50, 100)
	if lo < 0.40 || lo > 0.41 || hi < 0.59 || hi > 0.60 {
		t.Fatalf("50/100 interval = [%.3f, %.3f]", lo, hi)
	}
	// 0/20 must not dip below zero and must not be a point mass.
	lo, hi = WilsonInterval(0, 20)
	if lo != 0 || hi < 0.1 || hi > 0.2 {
		t.Fatalf("0/20 interval = [%.3f, %.3f]", lo, hi)
	}
	// 20/20: hi pinned at 1.
	lo, hi = WilsonInterval(20, 20)
	if hi != 1 || lo < 0.8 {
		t.Fatalf("20/20 interval = [%.3f, %.3f]", lo, hi)
	}
	// The interval always contains the point estimate (modulo float
	// rounding at the extremes).
	const eps = 1e-9
	for k := 0; k <= 30; k++ {
		lo, hi := WilsonInterval(k, 30)
		p := float64(k) / 30
		if p < lo-eps || p > hi+eps {
			t.Fatalf("point %f outside [%f, %f]", p, lo, hi)
		}
	}
}

func TestTallyMergeAndCI(t *testing.T) {
	var a, b Tally
	for i := 0; i < 8; i++ {
		a.Add(Success)
	}
	a.Add(Failure1)
	b.Add(Failure2)
	a.Merge(b)
	if a.Total != 10 || a.Success != 8 || a.Failure1 != 1 || a.Failure2 != 1 {
		t.Fatalf("merged = %+v", a)
	}
	if s := a.SuccessCI(); !strings.Contains(s, "80.0%") || !strings.Contains(s, "[") {
		t.Fatalf("CI = %q", s)
	}
}

// TestDiagnoseAttributesFailures implements the §3.4 future-work check:
// controlled re-runs identify which factor caused a failure.
func TestDiagnoseAttributesFailures(t *testing.T) {
	r := NewRunner(42)
	// A pair known to fail: teardown-rst against a device pinned to
	// resync-on-RST. Find one by sweeping.
	servers := Servers(30, r.Cal, 42)
	vps := VantagePoints()
	f, _, _ := core.ResolveStrategy("teardown-rst/ttl")
	var found *Diagnosis
	for _, vp := range vps {
		for _, srv := range servers {
			if r.RunOne(vp, srv, f, true, 0) == Failure2 {
				d := r.Diagnose(vp, srv, "teardown-rst/ttl", 0)
				found = &d
				break
			}
		}
		if found != nil {
			break
		}
	}
	if found == nil {
		t.Fatal("no failing pair found to diagnose")
	}
	if found.Baseline == Success {
		t.Fatal("diagnosis baseline should fail")
	}
	// The RST-resync factor must be among the explanations for a
	// teardown Failure-2 (that is its mechanism).
	explained := false
	for _, att := range found.Attributions {
		if att.Factor == "gfw-rst-resync" && att.Explains {
			explained = true
		}
	}
	if !explained && !found.Residual {
		t.Fatalf("attributions: %+v", found.Attributions)
	}

	// Campaign-level aggregation quantifies impact.
	counts := r.DiagnoseCampaign("teardown-rst/ttl", vps[:4], servers[:8], 2)
	if counts["failures"] == 0 {
		t.Fatal("campaign found no failures to diagnose")
	}
	if counts["gfw-rst-resync"] == 0 {
		t.Fatalf("rst-resync never explains a teardown failure: %v", counts)
	}
	out := FormatDiagnosis("teardown-rst/ttl", counts)
	if !strings.Contains(out, "gfw-rst-resync") {
		t.Fatalf("format:\n%s", out)
	}
}

// TestDiagnoseKeepsRunnerCensor: controlled re-runs keep the runner's
// censor. A spec censor ignores the calibration's GFW probabilities
// (see Runner.Censor), so removing a calibration-only factor must
// reproduce the failing trial event for event rather than re-run it
// against the calibrated GFW.
func TestDiagnoseKeepsRunnerCensor(t *testing.T) {
	r := NewRunner(42)
	r.Censor = "turkmenistan"
	vp, srv := VantagePoints()[0], Servers(1, r.Cal, r.Seed)[0]
	d := r.Diagnose(vp, srv, "teardown-rst/ttl", 0)
	if d.Baseline != Failure1 {
		t.Fatalf("%s / %s trial 0 is %v, want the failure-1 this check diagnoses", vp.Name, srv.Name, d.Baseline)
	}
	checked := 0
	for _, att := range d.Attributions {
		if att.Factor != "gfw-rst-resync" && att.Factor != "gfw-overlap-heterogeneity" {
			continue
		}
		checked++
		if att.Outcome != d.Baseline || att.FirstDivergence != "" {
			t.Errorf("without %s: %v, diverged at %q; want the baseline %v with no divergence",
				att.Factor, att.Outcome, att.FirstDivergence, d.Baseline)
		}
	}
	if checked != 2 {
		t.Fatalf("checked %d calibration-only factors, want 2", checked)
	}
}

func TestDiagnoseSuccessIsEmpty(t *testing.T) {
	r := NewRunner(42)
	srv := Servers(1, r.Cal, 42)[0]
	srv.Mix = EvolvedOnly
	srv.ServerSideFirewall = false
	srv.RouteDynamicsProb = 0
	srv.LossRate = 0
	d := r.Diagnose(VantagePoints()[0], srv, "creation-resync-desync", 1)
	if d.Baseline != Success || len(d.Attributions) != 0 {
		t.Fatalf("diagnosis of a success: %+v", d)
	}
}
