package chaos

import (
	"testing"

	"updatec/internal/sim"
)

// findChurnBlackout searches the (deterministic) compile space for a
// seed whose churn timeline retires every replica simultaneously — the
// zero-replica window. Compilation is pure, so the search result is
// stable; failing to find one means the generator lost the ability to
// express the edge case.
func findChurnBlackout(t *testing.T, spec sim.ScenarioSpec) sim.ScenarioSpec {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		spec.Seed = seed
		tl := spec.Compile()
		down := 0
		for _, ev := range tl.Events {
			switch ev.Kind {
			case sim.EvRetire:
				if down++; down == spec.N {
					return spec
				}
			case sim.EvRejoin:
				down--
			}
		}
	}
	t.Fatal("no seed under 500 produces a zero-replica churn window; the generator can no longer express it")
	return spec
}

// TestScenarioZeroReplicaChurnWindow: churn may retire the whole
// cluster at once; updates issued in that window are simply not issued
// (their issuers are down), everyone rejoins and pulls what they
// missed, and the run converges.
func TestScenarioZeroReplicaChurnWindow(t *testing.T) {
	spec := findChurnBlackout(t, sim.ScenarioSpec{
		N: 3, Ops: 250,
		Churn: &sim.ChurnSpec{Events: 24},
	})
	res, err := Run(Config{Object: "set", Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("zero-replica churn scenario (seed %d) did not converge:\n%v", spec.Seed, res.Trace)
	}
	if res.Issued >= spec.Ops {
		t.Fatalf("every slot issued (%d of %d) — the blackout window issued updates from retired replicas", res.Issued, spec.Ops)
	}
	if res.Retires < spec.N {
		t.Fatalf("only %d retires executed, want at least %d", res.Retires, spec.N)
	}
}

// TestScenarioAllIsolatedPartition: a regional partition with as many
// regions as replicas isolates every replica — nothing crosses the
// wire until the heal, whose digest round must repair all sides.
func TestScenarioAllIsolatedPartition(t *testing.T) {
	spec := sim.ScenarioSpec{
		N: 4, Ops: 200, Seed: 17,
		Regions: &sim.RegionSpec{Regions: 4, Cycles: 1},
	}
	res, err := Run(Config{Object: "kv", Shards: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("all-isolated partition scenario did not converge:\n%v", res.Trace)
	}
	if res.Partitions != 1 || res.Heals != 1 {
		t.Fatalf("expected one partition and one heal, got %d/%d", res.Partitions, res.Heals)
	}
}

// TestScenarioZipfSingleHotKey: a steep zipf exponent funnels nearly
// every update through one key — maximal per-key contention, every
// replica ends with the same resolution of it.
func TestScenarioZipfSingleHotKey(t *testing.T) {
	spec := sim.ScenarioSpec{
		N: 4, Ops: 300, Seed: 23, Keys: 8,
		Zipf: &sim.ZipfSpec{S: 20, V: 1},
	}
	tl := spec.Compile()
	hot := 0
	for _, k := range tl.Key {
		if k == 0 {
			hot++
		}
	}
	if hot*10 < len(tl.Key)*9 {
		t.Fatalf("zipf hot key holds only %d/%d updates", hot, len(tl.Key))
	}
	res, err := Run(Config{Object: "set", Workers: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("single-hot-key scenario did not converge:\n%v", res.Trace)
	}
}

// findHealInFaultWindow searches for a seed whose timeline fires a
// heal while a fault window is open — the repair-under-loss edge case.
func findHealInFaultWindow(t *testing.T, spec sim.ScenarioSpec) sim.ScenarioSpec {
	t.Helper()
	for seed := int64(0); seed < 500; seed++ {
		spec.Seed = seed
		tl := spec.Compile()
		faulted := false
		for _, ev := range tl.Events {
			switch ev.Kind {
			case sim.EvFaultOpen:
				faulted = true
			case sim.EvFaultClose:
				faulted = false
			case sim.EvHeal:
				if faulted {
					return spec
				}
			}
		}
	}
	t.Fatal("no seed under 500 heals inside an open fault window; the generator can no longer express it")
	return spec
}

// TestScenarioHealDuringFaultWindow: the partition heals while every
// link still drops and duplicates — the heal's cross-cut redelivery
// runs lossy, and the final repair's sync round must close whatever it
// loses.
func TestScenarioHealDuringFaultWindow(t *testing.T) {
	spec := findHealInFaultWindow(t, sim.ScenarioSpec{
		N: 5, Ops: 300,
		Regions: &sim.RegionSpec{Regions: 3, Cycles: 2, PartialHeals: true},
		Faults:  &sim.FaultSpec{Windows: 3, Width: 0.25, Drop: 0.3, Dup: 0.2},
	})
	res, err := Run(Config{Object: "countermap", Shards: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("heal-during-fault-window scenario (seed %d) did not converge:\n%v", spec.Seed, res.Trace)
	}
	if res.DroppedLink == 0 {
		t.Fatal("fault window dropped nothing — the edge case did not exercise loss")
	}
}

// TestScenarioMixedPresetConverges: the kitchen-sink preset — churn,
// flash crowds, zipf skew, regional partial heals, clock skew and
// fault windows together — still converges after final repair, at one
// and at four adversary workers, and each worker count reproduces its
// own schedule exactly.
func TestScenarioMixedPresetConverges(t *testing.T) {
	spec := sim.Presets()["mixed"]
	spec.N, spec.Ops, spec.Seed = 6, 300, 41
	for _, workers := range []int{1, 4} {
		a, err := Run(Config{Object: "set", Shards: 2, Workers: workers, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Converged {
			t.Fatalf("mixed preset at %d workers did not converge:\n%v", workers, a.Trace)
		}
		b, err := Run(Config{Object: "set", Shards: 2, Workers: workers, Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		if a.Fingerprint != b.Fingerprint {
			t.Fatalf("workers=%d: fingerprints diverge across identical runs: %x vs %x", workers, a.Fingerprint, b.Fingerprint)
		}
	}
}

// TestScenarioFIFOChangesSchedule: Spec.FIFO reaches the cluster. Per-
// link FIFO delivery narrows what the adversary may pick, so over a
// seed sweep of the regions preset at least one schedule fingerprint
// must differ from its non-FIFO twin, and both variants converge.
func TestScenarioFIFOChangesSchedule(t *testing.T) {
	differ := false
	for seed := int64(1); seed <= 5; seed++ {
		var prints [2]uint64
		for i, fifo := range []bool{false, true} {
			spec := sim.Presets()["regions"]
			spec.Seed, spec.FIFO = seed, fifo
			res, err := Run(Config{Object: "set", Spec: spec})
			if err != nil {
				t.Fatalf("seed %d fifo=%v: %v", seed, fifo, err)
			}
			if !res.Converged {
				t.Fatalf("seed %d fifo=%v: did not converge:\n%v", seed, fifo, res.Trace)
			}
			prints[i] = res.Fingerprint
		}
		differ = differ || prints[0] != prints[1]
	}
	if !differ {
		t.Fatal("FIFO on and off produced identical schedules for every seed — Spec.FIFO is not reaching the transport")
	}
}

// TestScenarioPresetWithResize: any timeline may resize, not only a
// chaos schedule — the regions preset's partial heals compose with a
// mid-run 2→4 reshard of a countermap.
func TestScenarioPresetWithResize(t *testing.T) {
	spec := sim.Presets()["regions"]
	spec.N, spec.Ops, spec.Seed, spec.Resize = 6, 300, 13, 4
	res, err := Run(Config{Object: "countermap", Shards: 2, Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("regions preset with a resize did not converge:\n%v", res.Trace)
	}
	if res.Resizes != 1 || res.Partitions == 0 || res.PartialHeals == 0 {
		t.Fatalf("expected one resize among partitions and partial heals, got %d resizes, %d partitions, %d partial heals",
			res.Resizes, res.Partitions, res.PartialHeals)
	}
}

// TestScenarioChurnUnderChaos: churn and chaos keep their own down-
// sets, so a spec with both can retire a replica the other already
// took down (or rejoin one it already brought back). The executor
// skips such a transition; the run must still converge.
func TestScenarioChurnUnderChaos(t *testing.T) {
	spec := sim.Presets()["churn"]
	spec.N, spec.Ops, spec.Chaos = 4, 300, &sim.ChaosSpec{Events: 16}
	for seed := int64(0); seed < 500; seed++ {
		spec.Seed = seed
		down := map[int]bool{}
		redundant := false
		for _, ev := range spec.Compile().Events {
			switch ev.Kind {
			case sim.EvRetire:
				redundant = redundant || down[ev.Proc]
				down[ev.Proc] = true
			case sim.EvRejoin:
				redundant = redundant || !down[ev.Proc]
				delete(down, ev.Proc)
			}
		}
		if !redundant {
			continue
		}
		res, err := Run(Config{Object: "kv", Spec: spec})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !res.Converged {
			t.Fatalf("churn under chaos (seed %d) did not converge:\n%v", seed, res.Trace)
		}
		return
	}
	t.Fatal("no seed under 500 overlaps churn and chaos transitions; the generator can no longer express it")
}
