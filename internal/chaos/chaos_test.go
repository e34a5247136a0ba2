package chaos

import (
	"reflect"
	"strings"
	"testing"

	"updatec/internal/sim"
)

// chaosSpec is a plain seeded chaos schedule: events fault events over
// ops update slots on the default four replicas.
func chaosSpec(seed int64, ops, events int) sim.ScenarioSpec {
	return sim.ScenarioSpec{Seed: seed, Ops: ops, Chaos: &sim.ChaosSpec{Events: events}}
}

// TestSchedulesConverge is the harness's core property: for every
// object kind and a spread of seeds, a schedule of crashes, recoveries,
// partitions, heals and lossy-link windows ends — after repair — with
// every replica in the same state.
func TestSchedulesConverge(t *testing.T) {
	objects := []string{"set", "counter", "register", "log", "sequence", "graph", "kv", "memory", "countermap"}
	for _, obj := range objects {
		for seed := int64(1); seed <= 4; seed++ {
			res, err := Run(Config{Object: obj, Spec: chaosSpec(seed, 200, 10)})
			if err != nil {
				t.Fatalf("%s seed %d: %v", obj, seed, err)
			}
			if !res.Converged {
				t.Fatalf("%s seed %d: failed to converge after repair\ntrace:\n%s",
					obj, seed, strings.Join(res.Trace, "\n"))
			}
		}
	}
}

// TestSchedulesExerciseRepair guards against a vacuously green harness:
// across the seed sweep, schedules must actually lose messages to
// crashes and link faults, and anti-entropy must actually land entries.
func TestSchedulesExerciseRepair(t *testing.T) {
	var crashes, faults int
	var droppedCrash, droppedLink, syncApplied, dupDropped uint64
	for seed := int64(1); seed <= 6; seed++ {
		res, err := Run(Config{Object: "set", Spec: chaosSpec(seed, 300, 14)})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge\ntrace:\n%s", seed, strings.Join(res.Trace, "\n"))
		}
		crashes += res.Retires
		faults += res.FaultWindows
		droppedCrash += res.DroppedCrash
		droppedLink += res.DroppedLink
		syncApplied += res.SyncApplied
		dupDropped += res.DupDropped
	}
	if crashes == 0 || faults == 0 {
		t.Fatalf("schedule sweep injected no crashes (%d) or fault windows (%d)", crashes, faults)
	}
	if droppedCrash == 0 || droppedLink == 0 {
		t.Fatalf("schedule sweep dropped nothing (crash=%d link=%d) — faults are not biting", droppedCrash, droppedLink)
	}
	if syncApplied == 0 {
		t.Fatalf("convergence held but anti-entropy applied nothing — repair path untested")
	}
	if dupDropped == 0 {
		t.Fatalf("duplication windows produced no duplicate drops — dedup path untested")
	}
}

// TestShardedScheduleWithResize runs chaos against a sharded
// countermap that resizes mid-schedule: recovery and digest sync must
// compose with epoch-tagged routing at the new shard count.
func TestShardedScheduleWithResize(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		spec := chaosSpec(seed, 300, 12)
		spec.Resize = 5
		res, err := Run(Config{Object: "countermap", Shards: 2, Spec: spec})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: sharded resize schedule did not converge\ntrace:\n%s",
				seed, strings.Join(res.Trace, "\n"))
		}
		if res.Resizes != 1 {
			t.Fatalf("seed %d: %d resizes executed, want 1", seed, res.Resizes)
		}
	}
}

// TestDeterministic: the same Config reproduces the same trace and the
// same counters bit-for-bit — a failing schedule is a regression test.
func TestDeterministic(t *testing.T) {
	cfg := Config{Object: "kv", Spec: chaosSpec(42, 250, 12)}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRecordedScheduleStaysUpdateConsistent records a small schedule
// and checks the paper's deciders: the chaotic run must still be
// eventually consistent and update consistent — the guarantee is
// supposed to survive faults, that is the whole point.
func TestRecordedScheduleStaysUpdateConsistent(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		spec := chaosSpec(seed, 12, 3)
		spec.N = 3
		res, err := Run(Config{Object: "set", Record: true, Spec: spec})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("seed %d: did not converge", seed)
		}
		if res.Classification == nil {
			t.Fatalf("seed %d: Record set but no classification", seed)
		}
		if !res.Classification.EventuallyConsistent || !res.Classification.UpdateConsistent {
			t.Fatalf("seed %d: classification lost the guarantee under chaos: %+v\ntrace:\n%s",
				seed, *res.Classification, strings.Join(res.Trace, "\n"))
		}
	}
}

// TestUnknownObject rejects junk.
func TestUnknownObject(t *testing.T) {
	if _, err := Run(Config{Object: "blockchain"}); err == nil {
		t.Fatal("expected an error for an unknown object")
	}
}
