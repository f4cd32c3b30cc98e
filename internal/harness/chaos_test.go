package harness

import (
	"testing"

	"sbft/internal/cluster"
)

// TestChaosSweep is the acceptance gate: ≥ 200 seeded random fault
// schedules across all four protocol variants, zero safety divergences
// and zero liveness failures. It runs in -short mode too — each scenario
// is a small simulated deployment, so the sweep stays cheap.
func TestChaosSweep(t *testing.T) {
	const runs = 200
	cr := RunChaos(SeedRange(1, runs), DefaultGen)
	if cr.Runs != runs {
		t.Fatalf("ran %d scenarios, want %d", cr.Runs, runs)
	}
	if !cr.OK() {
		for seed, err := range cr.Errors {
			t.Errorf("seed %d errored: %v", seed, err)
		}
		for _, rep := range cr.Failures {
			t.Errorf("%s", rep.Summary())
			for _, f := range rep.Faults {
				t.Logf("  fault: %s", f)
			}
		}
		t.Fatalf("%s", cr.Summary())
	}
}

// TestChaosCoversAllVariants pins the generator's protocol cycling.
func TestChaosCoversAllVariants(t *testing.T) {
	seen := make(map[cluster.Protocol]bool)
	for seed := int64(1); seed <= 8; seed++ {
		seen[DefaultGen(seed).Opts.Protocol] = true
	}
	for _, p := range chaosVariants {
		if !seen[p] {
			t.Errorf("generator never produced %s", p)
		}
	}
}

// TestChaosReportsMinimalFailingSeed pins the minimal-seed bookkeeping
// with a generator that fails deterministically on certain seeds.
func TestChaosReportsMinimalFailingSeed(t *testing.T) {
	gen := func(seed int64) Scenario {
		s := DefaultGen(seed)
		if seed%3 == 0 {
			// Sabotage: demand completion but crash a replica forever and
			// give the workload no time at all.
			s.Schedule = cluster.Schedule{{At: 0, Kind: cluster.FaultCrash, Node: 1}}
			s.Horizon = 1
			s.OpsPerClient = 1
		}
		return s
	}
	cr := RunChaos([]int64{5, 6, 9, 10}, gen)
	if !cr.HasFailure {
		t.Fatal("sabotaged seeds did not fail")
	}
	if cr.MinFailingSeed != 6 {
		t.Fatalf("MinFailingSeed = %d, want 6", cr.MinFailingSeed)
	}
}

// stubRun is a run outcome that fails on demand.
type stubRun bool

func (s stubRun) Failed() bool { return bool(s) }

// TestSweepSummaryCountsFailures pins the shared seed loop's accounting:
// a failing run (not only a run error) lands in Failures, so the summary
// never prints "0 failures" beside a minimal failing seed.
func TestSweepSummaryCountsFailures(t *testing.T) {
	cr := sweep([]int64{3, 4, 5}, func(seed int64) (stubRun, error) { return seed == 4, nil }, nil)
	if len(cr.Failures) != 1 || !cr.HasFailure || cr.MinFailingSeed != 4 {
		t.Fatalf("failures=%d has=%v min=%d, want 1 failure at seed 4", len(cr.Failures), cr.HasFailure, cr.MinFailingSeed)
	}
	if want := "chaos: 3 scenarios, 1 failures, 0 errors; minimal failing seed 4"; cr.Summary() != want {
		t.Fatalf("summary %q, want %q", cr.Summary(), want)
	}
}
