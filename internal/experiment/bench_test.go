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
