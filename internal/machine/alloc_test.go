package machine

import (
	"testing"

	"repro/internal/coherence"
	"repro/internal/workload"
)

// TestSteadyStateCycleAllocBudget pins the per-cycle allocation
// budget of the warm cycle loop, measured mid-run (the test fails if
// any core finished inside the window, so the budget can never be met
// by an idle machine). The hot path pools every steady-state object —
// event-queue nodes, mesh packets, MemRequests, L1 completions and
// pending entries, directory entries, wired Msgs (one free list per
// machine; handlers that keep a message copy its value) and the retry
// records that replaced message-capturing closures — so what remains
// is transaction records (&txn) and the wireless path's closures.
// Baseline radiosity carries the invalidation/NACK storm over the
// wired mesh and must stay nearly allocation-free; WiDir barnes adds
// the wireless updates and jamming. Each budget is the measured steady
// state (0.37 and 1.53 objects/cycle) plus slack for step-to-step
// variance; it exists to catch the hot path regressing to per-cycle
// map/closure/message churn, which shows up as several allocations
// per cycle.
func TestSteadyStateCycleAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		app    string
		p      coherence.Protocol
		budget float64
	}{
		{"radiosity", coherence.Baseline, 0.75},
		{"barnes", coherence.WiDir, 2.0},
	} {
		prof, ok := workload.ByName(tc.app)
		if !ok {
			t.Fatalf("unknown app %s", tc.app)
		}
		sys, err := NewSystem(DefaultConfig(16, tc.p), workload.Program(prof, 16, 11))
		if err != nil {
			t.Fatal(err)
		}
		sys.Step(4_000) // warm every pool past its high-water mark
		const steps = 100
		avg := testing.AllocsPerRun(20, func() { sys.Step(steps) }) / steps
		for i, c := range sys.cores {
			if c.Done() {
				t.Fatalf("%s/%v: core %d finished inside the measured window", tc.app, tc.p, i)
			}
		}
		if avg > tc.budget {
			t.Errorf("%s/%v: steady-state cycle loop allocates %.2f objects/cycle, budget %.2f",
				tc.app, tc.p, avg, tc.budget)
		}
	}
}
