package sim

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"
)

// TestScenarioCompileDeterministic: a spec IS its timeline — compiling
// twice must produce deeply equal events, issuers and keys.
func TestScenarioCompileDeterministic(t *testing.T) {
	specs := Presets()
	specs["chaos"] = ScenarioSpec{Chaos: &ChaosSpec{Events: 30}, Resize: 4}
	for name, spec := range specs {
		spec.N, spec.Ops, spec.Seed = 12, 300, 42
		a, b := spec.Compile(), spec.Compile()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: compile is not deterministic", name)
		}
	}
}

// timelineHash digests a compiled timeline's events, issuers and keys
// field by field, so the digest is independent of Event.String and of
// fields added later.
func timelineHash(tl Timeline) uint64 {
	h := fnv.New64a()
	for _, ev := range tl.Events {
		fmt.Fprintf(h, "%d/%d/%d/%v/%g/%g;", ev.Slot, ev.Kind, ev.Proc, ev.Groups, ev.Drop, ev.Dup)
	}
	fmt.Fprint(h, tl.Issuer, tl.Key)
	return h.Sum64()
}

// TestScenarioPresetTimelinesPinned: chaos schedules and resizes are
// additions to the compiler, so every preset without them must keep
// compiling to the timeline it compiled to before they existed — the
// pinned digests, at (N 12, Ops 300, Seed 42) and at the defaults with
// seed 7.
func TestScenarioPresetTimelinesPinned(t *testing.T) {
	pinned := map[string][2]uint64{
		"churn":    {0x4c1d8ba0be2e1b21, 0xeacfdfd48ceca664},
		"flash":    {0xe97a41a776abc2fc, 0xe0aeedfe65e0723a},
		"mixed":    {0x7b40c821b8eba691, 0xa2ee55f6f1641806},
		"regions":  {0x463cd2797aae0745, 0xf19234af1f4d1dfb},
		"skew":     {0x512fbc2fbe0770f4, 0x3a45ab76e23472fd},
		"zipf-hot": {0x5fdfc7ae98774f5b, 0x93efa9858fbf1bba},
	}
	presets := Presets()
	if len(presets) != len(pinned) {
		t.Fatalf("%d presets, %d pinned digests", len(presets), len(pinned))
	}
	for name, spec := range presets {
		sized, dflt := spec, spec
		sized.N, sized.Ops, sized.Seed = 12, 300, 42
		dflt.Seed = 7
		got := [2]uint64{timelineHash(sized.Compile()), timelineHash(dflt.Compile())}
		if got != pinned[name] {
			t.Errorf("%s: timeline digests %#x, pinned %#x", name, got, pinned[name])
		}
	}
}

// TestScenarioChurnFeasible: compiled churn and chaos events must
// always retire a live replica and rejoin a down one (the executor
// replays them without guessing). Churn leaves everyone live by the
// end of the timeline; chaos keeps at least one replica up, heals
// only an open partition, closes only an open fault window, and
// splits into two non-empty sides.
func TestScenarioChurnFeasible(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		spec := ScenarioSpec{N: 5, Ops: 200, Seed: seed, Chaos: &ChaosSpec{Events: 40}}
		tl := spec.Compile()
		down := map[int]bool{}
		partitioned, faulted := false, false
		for _, ev := range tl.Events {
			switch ev.Kind {
			case EvRetire:
				if down[ev.Proc] {
					t.Fatalf("chaos seed %d: crash of already-down p%d", seed, ev.Proc)
				}
				if down[ev.Proc] = true; len(down) > spec.N-1 {
					t.Fatalf("chaos seed %d: all %d replicas down at slot %d", seed, spec.N, ev.Slot)
				}
			case EvRejoin:
				if !down[ev.Proc] {
					t.Fatalf("chaos seed %d: recover of live p%d", seed, ev.Proc)
				}
				delete(down, ev.Proc)
			case EvPartition:
				if partitioned {
					t.Fatalf("chaos seed %d: partition while partitioned at slot %d", seed, ev.Slot)
				}
				partitioned = true
				if len(ev.Groups) != 2 || len(ev.Groups[0]) == 0 || len(ev.Groups[1]) == 0 ||
					len(ev.Groups[0])+len(ev.Groups[1]) != spec.N {
					t.Fatalf("chaos seed %d: trivial or partial split %v", seed, ev.Groups)
				}
			case EvHeal:
				if !partitioned {
					t.Fatalf("chaos seed %d: heal without a partition at slot %d", seed, ev.Slot)
				}
				partitioned = false
			case EvFaultOpen:
				if faulted {
					t.Fatalf("chaos seed %d: fault window opened twice at slot %d", seed, ev.Slot)
				}
				faulted = true
			case EvFaultClose:
				if !faulted {
					t.Fatalf("chaos seed %d: close without an open window at slot %d", seed, ev.Slot)
				}
				faulted = false
			default:
				t.Fatalf("chaos seed %d: unexpected event %s", seed, ev)
			}
		}
		if len(tl.Events) != spec.Chaos.Events {
			t.Fatalf("chaos seed %d: compiled %d events, want %d", seed, len(tl.Events), spec.Chaos.Events)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		spec := ScenarioSpec{N: 5, Ops: 200, Seed: seed, Churn: &ChurnSpec{Events: 20}}
		tl := spec.Compile()
		down := map[int]bool{}
		for _, ev := range tl.Events {
			switch ev.Kind {
			case EvRetire:
				if down[ev.Proc] {
					t.Fatalf("seed %d: retire of already-down p%d", seed, ev.Proc)
				}
				down[ev.Proc] = true
			case EvRejoin:
				if !down[ev.Proc] {
					t.Fatalf("seed %d: rejoin of live p%d", seed, ev.Proc)
				}
				delete(down, ev.Proc)
			}
		}
		if len(down) != 0 {
			t.Fatalf("seed %d: %d replicas still down after the timeline", seed, len(down))
		}
	}
}

// TestScenarioZipfHotKey: a steep zipf exponent concentrates the
// workload on one scorching key.
func TestScenarioZipfHotKey(t *testing.T) {
	spec := ScenarioSpec{N: 4, Ops: 1000, Seed: 7, Keys: 8, Zipf: &ZipfSpec{S: 20, V: 1}}
	tl := spec.Compile()
	hot := 0
	for _, k := range tl.Key {
		if k == 0 {
			hot++
		}
	}
	if hot < 900 {
		t.Fatalf("zipf S=20 put only %d/1000 updates on the hot key", hot)
	}
}

// TestScenarioRegionsPartialHeals: each cycle must split into the full
// region count, then re-partition with strictly fewer groups at every
// partial heal, then fully heal.
func TestScenarioRegionsPartialHeals(t *testing.T) {
	spec := ScenarioSpec{N: 9, Ops: 300, Seed: 3, Regions: &RegionSpec{Regions: 3, Cycles: 2, PartialHeals: true}}
	tl := spec.Compile()
	groups := -1
	heals := 0
	for _, ev := range tl.Events {
		switch ev.Kind {
		case EvPartition:
			if len(ev.Groups) != 3 {
				t.Fatalf("partition opened %d groups, want 3", len(ev.Groups))
			}
			groups = 3
		case EvPartialHeal:
			if len(ev.Groups) >= groups {
				t.Fatalf("partial heal to %d groups after %d", len(ev.Groups), groups)
			}
			groups = len(ev.Groups)
		case EvHeal:
			heals++
		}
	}
	if heals != 2 {
		t.Fatalf("expected 2 full heals, saw %d", heals)
	}
}

// TestScenarioFlashAndSkewShapeTraffic: flash crowds and skew must
// actually bend the issuer distribution — the crowd's replicas issue
// far above their uniform share during the window, and the fastest
// skew class outissues the slowest.
func TestScenarioFlashAndSkewShapeTraffic(t *testing.T) {
	spec := ScenarioSpec{N: 16, Ops: 4000, Seed: 11,
		Flash: &FlashSpec{Crowds: 1, Width: 0.5, Boost: 12, Focus: 0.25},
		Skew:  &SkewSpec{MaxSkew: 4},
	}
	tl := spec.Compile()
	counts := make([]int, spec.N)
	for _, p := range tl.Issuer {
		counts[p]++
	}
	slow, fast := 0, 0
	for i, c := range counts {
		if i%skewClasses == 0 {
			slow += c
		}
		if i%skewClasses == skewClasses-1 {
			fast += c
		}
	}
	if fast <= slow {
		t.Fatalf("skew did not bend traffic: fastest class issued %d, slowest %d", fast, slow)
	}
}

// TestRunScaleDeterministicSchedule: the capacity backend is an
// adversary too — equal (spec, workers) must reproduce the schedule
// fingerprint and the delivery count exactly, and the run must drain.
func TestRunScaleDeterministicSchedule(t *testing.T) {
	spec := Presets()["mixed"]
	spec.N, spec.Ops, spec.Seed = 60, 120, 5
	for _, workers := range []int{1, 2, 4} {
		a := RunScale(spec, ScaleOptions{Workers: workers, Batch: 64})
		b := RunScale(spec, ScaleOptions{Workers: workers, Batch: 64})
		if a.Fingerprint != b.Fingerprint || a.Delivered != b.Delivered {
			t.Fatalf("workers=%d: runs diverge: %x/%d vs %x/%d",
				workers, a.Fingerprint, a.Delivered, b.Fingerprint, b.Delivered)
		}
		if a.Delivered == 0 || a.Broadcasts == 0 {
			t.Fatalf("workers=%d: empty run (%d broadcasts, %d delivered)", workers, a.Broadcasts, a.Delivered)
		}
		if a.Rounds == 0 || a.Span <= 0 {
			t.Fatalf("workers=%d: no span recorded (%d rounds, span %v)", workers, a.Rounds, a.Span)
		}
	}
	// Without faults or churn, every broadcast reaches all N replicas
	// regardless of the worker count: the adversaries differ, the
	// delivered totals cannot.
	plain := ScenarioSpec{N: 40, Ops: 50, Seed: 9}
	d1 := RunScale(plain, ScaleOptions{Workers: 1, Batch: 32})
	d4 := RunScale(plain, ScaleOptions{Workers: 4, Batch: 32})
	if d1.Delivered != d4.Delivered {
		t.Fatalf("lossless scenario delivered %d at 1 worker, %d at 4", d1.Delivered, d4.Delivered)
	}
}
