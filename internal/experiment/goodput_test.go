package experiment

import "testing"

// TestCongestionDisabledZeroAlloc holds the unconstrained trial to the
// hot-path budget: the congestion machinery grown for rated links —
// per-connection cwnd/ssthresh tracking, RTT-sampled retransmission
// timers, the persist timer, and the per-link shaper hook — must cost
// a campaign over unshaped links nothing. Shapers are built only on
// rated links.
func TestCongestionDisabledZeroAlloc(t *testing.T) {
	requireTrialAllocBudget(t, "unconstrained trial with congestion machinery present")
}

// TestGoodputReorderCostlier is the congestion demo's acceptance
// property: on the bw=1mbit,queue=16 access link every
// duplicate/reorder-heavy strategy must deliver measurably lower
// goodput than every insertion-only strategy — the cost the paper's
// success rates never surfaced.
func TestGoodputReorderCostlier(t *testing.T) {
	if testing.Short() {
		t.Skip("full goodput campaign")
	}
	rows := RunGoodput(NewRunner(42), QuickScale())
	var minInject, maxReorder int64
	minInject = 1 << 62
	for _, row := range rows {
		if row.ConstrainedBps <= 0 {
			t.Errorf("%s: no goodput on the constrained link", row.Strategy)
		}
		switch row.Class {
		case "reorder":
			if row.ConstrainedBps > maxReorder {
				maxReorder = row.ConstrainedBps
			}
		case "inject":
			if row.ConstrainedBps < minInject {
				minInject = row.ConstrainedBps
			}
		}
	}
	// "Measurably lower": the best reorder strategy still loses at
	// least a third of the goodput the worst inject strategy keeps.
	if maxReorder*3 > minInject*2 {
		t.Errorf("reorder strategies not measurably costlier: best reorder %d bps vs worst inject %d bps",
			maxReorder, minInject)
	}
}
