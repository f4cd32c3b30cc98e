package harness

import (
	"fmt"
	"math/rand"
	"time"

	"sbft/internal/cluster"
	"sbft/internal/core"
	"sbft/internal/sim"
)

// ScenarioGen produces a scenario from a seed. Generators must be
// deterministic: the same seed yields the same scenario, so a failing
// seed is a complete reproduction recipe.
type ScenarioGen func(seed int64) Scenario

// chaosVariants is the protocol ladder the chaos runner cycles through
// (the paper's four SBFT-engine-relevant configurations plus the PBFT
// baseline collapsed into its Protocol enum).
var chaosVariants = [...]cluster.Protocol{
	cluster.ProtoPBFT,
	cluster.ProtoLinearPBFT,
	cluster.ProtoLinearFast,
	cluster.ProtoSBFT,
}

// DefaultGen generates a random-but-survivable fault schedule: fault
// windows are sequential (never more than one impaired replica at a time,
// respecting the f = 1 budget) and everything heals before the workload
// horizon, so both safety and liveness are asserted. The protocol variant
// cycles with the seed across PBFT, Linear-PBFT, Linear-PBFT+Fast and
// SBFT.
func DefaultGen(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed*0x9e3779b9 + 0x7f4a7c15))
	proto := chaosVariants[int(uint64(seed)%uint64(len(chaosVariants)))]

	opts := cluster.Options{
		Protocol:      proto,
		F:             1,
		Clients:       2,
		Seed:          seed,
		ClientTimeout: time.Second,
		Persist:       true, // every engine restarts from storage now
		// One modeled crypto worker: the CryptoSink staging/epoch machinery
		// runs under every chaos seed while the sweep stays deterministic.
		CryptoPool: 1,
		Tune: func(c *core.Config) {
			c.ViewChangeTimeout = time.Second
		},
	}
	if proto == cluster.ProtoSBFT && rng.Float64() < 0.25 {
		opts.C = 1 // n = 6: exercise the redundant-server quorums
	}
	n := 3*opts.F + 1
	if proto != cluster.ProtoPBFT {
		n = 3*opts.F + 2*opts.C + 1
	}

	var sched cluster.Schedule
	at := 200*time.Millisecond + time.Duration(rng.Int63n(int64(300*time.Millisecond)))
	windows := 1 + rng.Intn(3)
	for w := 0; w < windows; w++ {
		dur := 300*time.Millisecond + time.Duration(rng.Int63n(int64(900*time.Millisecond)))
		node := 1 + rng.Intn(n)
		end := at + dur
		switch kind := rng.Intn(6); kind {
		case 0, 1:
			// Crash window; half the time (when persistence is on) the
			// replica comes back by replaying its durable log instead of
			// with its in-memory state.
			sched = append(sched, cluster.Fault{At: at, Kind: cluster.FaultCrash, Node: node})
			if opts.Persist && kind == 0 {
				sched = append(sched, cluster.Fault{At: end, Kind: cluster.FaultRestart, Node: node})
			} else {
				sched = append(sched, cluster.Fault{At: end, Kind: cluster.FaultRecover, Node: node})
			}
		case 2:
			// Isolate one replica from every other replica (both sides
			// must hold non-zero groups; clients stay connected to all).
			for id := 1; id <= n; id++ {
				g := 2
				if id == node {
					g = 1
				}
				sched = append(sched, cluster.Fault{At: at, Kind: cluster.FaultPartition, Node: id, Group: g})
			}
			sched = append(sched, cluster.Fault{At: end, Kind: cluster.FaultHeal})
		case 3:
			extra := 100*time.Millisecond + time.Duration(rng.Int63n(int64(900*time.Millisecond)))
			sched = append(sched, cluster.Fault{At: at, Kind: cluster.FaultStraggle, Node: node, Extra: extra})
			sched = append(sched, cluster.Fault{At: end, Kind: cluster.FaultStraggle, Node: node, Extra: 0})
		case 4:
			// Lossy outbound link from one replica.
			f := sim.LinkFault{Drop: 0.3 + 0.6*rng.Float64()}
			sched = append(sched, cluster.Fault{At: at, Kind: cluster.FaultLink, From: node, To: 0, Link: f})
			sched = append(sched, cluster.Fault{At: end, Kind: cluster.FaultLinkClear})
		default:
			// Duplicate + reorder everywhere: a pure idempotence stressor.
			f := sim.LinkFault{
				Duplicate:     0.3 + 0.4*rng.Float64(),
				ReorderJitter: 5*time.Millisecond + time.Duration(rng.Int63n(int64(25*time.Millisecond))),
			}
			sched = append(sched, cluster.Fault{At: at, Kind: cluster.FaultLink, From: 0, To: 0, Link: f})
			sched = append(sched, cluster.Fault{At: end, Kind: cluster.FaultLinkClear})
		}
		at = end + 100*time.Millisecond + time.Duration(rng.Int63n(int64(200*time.Millisecond)))
	}

	s := Scenario{
		Name:               fmt.Sprintf("chaos-%s", proto),
		Opts:               opts,
		Schedule:           sched,
		OpsPerClient:       5,
		Horizon:            30 * time.Minute, // virtual time; generous on purpose
		Settle:             30 * time.Second,
		ExpectAllCommitted: true,
	}
	// Every fifth seed runs the same schedule against the EVM ledger
	// instead of the KV store (the paper's second workload, §IX).
	if seed%5 == 2 {
		s = evmize(s)
	}
	return s
}

// SeedRange returns n consecutive seeds from start.
func SeedRange(start int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)
	}
	return out
}

// ChaosReport aggregates a chaos sweep over runs reporting R (*Report
// for single-group scenarios, *ShardReport for sharded ones).
type ChaosReport[R interface{ Failed() bool }] struct {
	Runs     int
	Failures []R
	// Errors are scenarios that could not run at all (cluster build
	// failures) keyed by seed.
	Errors map[int64]error
	// MinFailingSeed is the smallest seed that failed; valid only when
	// HasFailure.
	MinFailingSeed int64
	HasFailure     bool
}

// note records a failing seed.
func (cr *ChaosReport[R]) note(seed int64) {
	if !cr.HasFailure || seed < cr.MinFailingSeed {
		cr.MinFailingSeed = seed
	}
	cr.HasFailure = true
}

// OK reports a clean sweep.
func (cr *ChaosReport[R]) OK() bool { return !cr.HasFailure && len(cr.Errors) == 0 }

// Summary renders the sweep outcome.
func (cr *ChaosReport[R]) Summary() string {
	if cr.OK() {
		return fmt.Sprintf("chaos: %d scenarios, no divergence", cr.Runs)
	}
	return fmt.Sprintf("chaos: %d scenarios, %d failures, %d errors; minimal failing seed %d",
		cr.Runs, len(cr.Failures), len(cr.Errors), cr.MinFailingSeed)
}

// RunChaos executes gen(seed) for every seed and audits each run. Every
// scenario runs in a fresh simulated cluster; a failing seed reproduces
// by itself via Run(gen(seed)). An optional observer streams each
// outcome as it lands (rep is nil when err is set).
func RunChaos(seeds []int64, gen ScenarioGen, observe ...func(seed int64, rep *Report, err error)) *ChaosReport[*Report] {
	return sweep(seeds, func(seed int64) (*Report, error) { return Run(gen(seed)) }, observe)
}

// sweep is the seed loop shared by every chaos topology: run(seed) for
// each seed, streaming each outcome to the observers, with failing runs
// and run errors both counted towards the minimal failing seed.
func sweep[R interface{ Failed() bool }](seeds []int64, run func(seed int64) (R, error), observe []func(seed int64, rep R, err error)) *ChaosReport[R] {
	cr := &ChaosReport[R]{Errors: make(map[int64]error)}
	for _, seed := range seeds {
		cr.Runs++
		rep, err := run(seed)
		for _, ob := range observe {
			ob(seed, rep, err)
		}
		if err != nil {
			cr.Errors[seed] = err
			cr.note(seed)
			continue
		}
		if rep.Failed() {
			cr.Failures = append(cr.Failures, rep)
			cr.note(seed)
		}
	}
	return cr
}
