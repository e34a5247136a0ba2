package updatec_test

import (
	"strings"
	"testing"

	"updatec/internal/chaos"
	"updatec/internal/sim"
)

// TestDefineChaosConvergence puts the Define-built peakmap object (see
// define_test.go) through the same seeded crash/partition/fault
// schedules the built-ins face — resolved from the registry by name,
// driven by its own workload generator. It lives in the external test
// package because the chaos harness itself imports updatec.
func TestDefineChaosConvergence(t *testing.T) {
	for _, shards := range []int{1, 2} {
		res, err := chaos.Run(chaos.Config{Object: "peakmap", Shards: shards, Spec: sim.ScenarioSpec{
			Seed: 11, Ops: 300, Chaos: &sim.ChaosSpec{Events: 10},
		}})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if !res.Converged {
			t.Fatalf("shards=%d: chaos schedule did not converge:\n%s", shards, strings.Join(res.Trace, "\n"))
		}
	}
}
