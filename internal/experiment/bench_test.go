package experiment

import (
	"strings"
	"testing"
)

// TestBenchReportsShowBytes checks that the report and the comparison
// both carry each section's B/op beside ns/op and allocs/op: recycling
// trial state moves bytes far more than it moves allocation counts.
func TestBenchReportsShowBytes(t *testing.T) {
	oldRep := BenchReport{
		Trial:            BenchResult{NsPerOp: 55000, BytesPerOp: 20000, AllocsPerOp: 99},
		CampaignParallel: BenchResult{NsPerOp: 13e6, BytesPerOp: 5_400_000, AllocsPerOp: 23700},
	}
	newRep := BenchReport{
		Trial:            BenchResult{NsPerOp: 50000, BytesPerOp: 20000, AllocsPerOp: 99},
		CampaignParallel: BenchResult{NsPerOp: 11e6, BytesPerOp: 2_700_000, AllocsPerOp: 22800},
	}
	if s := FormatBenchReport(newRep); !strings.Contains(s, "2700000 B/op") {
		t.Errorf("report lacks the parallel campaign's B/op:\n%s", s)
	}
	cmp := CompareBenchReports(oldRep, newRep)
	for _, want := range []string{"old B/op", "5400000", "2700000", "-50.0%"} {
		if !strings.Contains(cmp, want) {
			t.Errorf("comparison lacks %q:\n%s", want, cmp)
		}
	}
}

// TestBenchSpread checks the ns/op spread: a report records it per
// section and layer, the report and the comparison print it beside
// ns/op, and a report written before it (no min/max fields) still
// reads, compares as "n/a" and writes no empty fields back.
func TestBenchSpread(t *testing.T) {
	oldJSON := `{"trial": {"ns_per_op": 30000, "bytes_per_op": 19000, "allocs_per_op": 87},
		"layers": [{"name": "dpi_scan", "ns_per_op": 3800, "bytes_per_op": 0, "allocs_per_op": 0}]}`
	oldRep, err := ReadBenchJSON(strings.NewReader(oldJSON))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteBenchJSON(&buf, oldRep); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "ns_per_op_m") {
		t.Errorf("a report without the spread wrote it back:\n%s", buf.String())
	}
	newRep := BenchReport{
		Trial: BenchResult{NsPerOp: 28000, NsPerOpMin: 27000, NsPerOpMax: 29800, BytesPerOp: 19000, AllocsPerOp: 87},
		Layers: []BenchLayer{{Name: "dpi_scan",
			BenchResult: BenchResult{NsPerOp: 1500, NsPerOpMin: 1470, NsPerOpMax: 1530}}},
	}
	if s := FormatBenchReport(newRep); !strings.Contains(s, "spread 10.0%") || !strings.Contains(s, "spread  4.0%") {
		t.Errorf("report lacks the spread:\n%s", s)
	}
	cmp := CompareBenchReports(oldRep, newRep)
	for _, want := range []string{"spread old/new", "n/a/10.0%", "n/a/4.0%", "-60.5%"} {
		if !strings.Contains(cmp, want) {
			t.Errorf("comparison lacks %q:\n%s", want, cmp)
		}
	}
}

// BenchmarkLayers runs the layer benchmarks `make bench` records in
// BENCH_netem.json's layers section, one sub-benchmark each.
func BenchmarkLayers(b *testing.B) {
	for _, l := range benchLayers {
		b.Run(l.name, l.bench)
	}
}
