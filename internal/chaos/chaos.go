// Package chaos is the fault harness: it executes a compiled scenario
// timeline (internal/sim) — crash/retire, recover/rejoin, partitions
// and partial heals, per-link drop/duplication windows, live resizes —
// against any object of the public updatec API, then repairs the
// cluster (heal + recover + anti-entropy) and asserts convergence.
//
// The harness exists to demonstrate the robustness claim of the
// partitionable-systems companion paper: update consistency is exactly
// the guarantee that survives long partitions, rejoining replicas and
// lossy links, PROVIDED the missing update suffixes are repaired — by
// the transport's redelivery where it still holds them, and by the
// anti-entropy digest sync where it does not (crash-dropped messages,
// injected link drops). Seeded chaos schedules (sim.ChaosSpec) and the
// scenario presets compile to the same kind of timeline and run
// through the one Run. A run is reproducible from its Config: the
// timeline fixes the faults, issuers and keys, the seed (with the
// worker count) fixes the delivery pacing and the adversary, so a
// failing run is a regression test.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"

	"updatec"
	"updatec/internal/sim"
)

// Config names the object under test and the timeline to run it
// through.
type Config struct {
	// Object names the replicated data type, as in `ucsim -obj`: set,
	// counter, register, log, sequence, graph, kv, memory, countermap,
	// or anything an application registered with updatec.Define.
	Object string
	// Shards runs partitionable objects key-sharded.
	Shards int
	// Workers, when above 1, runs the cluster on the parallel sharded
	// adversary (updatec.WithWorkers): deliveries happen in
	// deterministic parallel rounds instead of one message at a time.
	// The schedule is then defined by (Spec, Workers) — still
	// bit-for-bit reproducible, but a different (equally valid)
	// adversary than the sequential one.
	Workers int
	// Record records the run's history and classifies it under the
	// paper's criteria. Keep Spec.Ops small (the deciders solve
	// NP-complete problems).
	Record bool
	// Spec is the scenario; its N/Ops/Seed/FIFO/Resize and sub-specs
	// drive everything.
	Spec sim.ScenarioSpec
}

// Result reports one run.
type Result struct {
	// Converged reports whether every replica reached the same state
	// after final repair — the acceptance bar of every run.
	Converged bool
	// Issued counts updates actually issued (slots whose issuer was
	// down issue nothing, like a real client whose server is down).
	Issued int
	// Event counts, as executed.
	Retires, Rejoins, Partitions, PartialHeals, Heals, FaultWindows, Resizes int
	// SyncApplied counts log entries landed by anti-entropy pulls;
	// DupDropped counts exact-duplicate arrivals the logs absorbed
	// (injected duplication, post-heal redelivery of synced entries).
	SyncApplied, DupDropped uint64
	// DroppedCrash and DroppedLink attribute transport-level message
	// loss; every one of these losses had to be repaired by a digest
	// exchange for Converged to hold.
	DroppedCrash, DroppedLink uint64
	// Fingerprint pins the adversary's delivery schedule — equal
	// configs must reproduce it bit for bit.
	Fingerprint uint64
	// Classification is set when Config.Record was on.
	Classification *updatec.Classification
	// Trace is the executed event narrative, one line per event plus
	// the final repair.
	Trace []string
}

// control is the object-independent slice of *updatec.Cluster[H] the
// executor drives; every instantiation of the generic cluster
// satisfies it.
type control interface {
	Crash(p int) error
	Recover(p int) error
	Partition(groups ...[]int) error
	Heal() error
	Sync() error
	FaultAll(drop, dup float64) error
	Resize(s int) error
	Deliver() bool
	Settle()
	Converged() bool
	Stats() updatec.NetworkStats
	RepairStats() (uint64, uint64)
	Classify() (updatec.Classification, error)
	ScheduleFingerprint() uint64
	Close()
}

// harness pairs the type-erased cluster control with a mutator that
// issues one update on a given replica's typed handle, keyed by the
// timeline's chosen key (so workload generators control key
// popularity); any secondary randomness comes from the rng.
type harness struct {
	ctl    control
	update func(p int, key string, rng *rand.Rand)
}

// build constructs the cluster for cfg.Object through the public API,
// shaped by the normalized spec s. The object is resolved from the
// descriptor registry, so any name a Define call registered — built-in
// or application-defined — runs under the same timelines; the object's
// own workload generator issues the updates.
func build(cfg Config, s sim.ScenarioSpec) (*harness, error) {
	obj, err := updatec.Lookup(cfg.Object)
	if err != nil {
		return nil, fmt.Errorf("chaos: %w", err)
	}
	if _, ok := obj.RandomUpdate(rand.New(rand.NewSource(0)), "probe"); !ok {
		return nil, fmt.Errorf("chaos: object %q has no workload generator (Define it with updatec.WithWorkload)", cfg.Object)
	}
	opts := []updatec.Option{updatec.WithSeed(s.Seed)}
	if s.FIFO {
		opts = append(opts, updatec.WithFIFO())
	}
	if cfg.Shards > 1 {
		opts = append(opts, updatec.WithShards(cfg.Shards))
	}
	if cfg.Workers > 1 {
		opts = append(opts, updatec.WithWorkers(cfg.Workers))
	}
	if cfg.Record {
		opts = append(opts, updatec.WithRecording())
	}
	cluster, handles, err := updatec.New(s.N, obj, opts...)
	if err != nil {
		return nil, err
	}
	return &harness{
		ctl: cluster,
		update: func(p int, key string, rng *rand.Rand) {
			if u, ok := obj.RandomUpdate(rng, key); ok {
				handles[p].Update(u)
			}
		},
	}, nil
}

// finalRepair is the harness's repair protocol: close any open fault
// window (so the remaining backlog drains losslessly), heal the
// partition (automatic digest exchange), bring every crashed replica
// back in id order (each rejoins and pulls what it missed), settle the
// transport, then one last all-replica sync round to repair anything
// the fault window dropped after the last exchange. Returns the
// replicas it recovered.
func finalRepair(ctl control, crashed map[int]bool, partitioned, faulted bool) ([]int, error) {
	if faulted {
		if err := ctl.FaultAll(0, 0); err != nil {
			return nil, err
		}
	}
	if partitioned {
		if err := ctl.Heal(); err != nil {
			return nil, err
		}
	}
	var down []int
	for p := range crashed {
		down = append(down, p)
	}
	sort.Ints(down)
	for _, p := range down {
		if err := ctl.Recover(p); err != nil {
			return down, err
		}
	}
	ctl.Settle()
	if err := ctl.Sync(); err != nil {
		return down, err
	}
	return down, nil
}

// Run executes one timeline: per slot, fire the slot's events, issue
// its update on its issuer (unless that replica is down), deliver 0–3
// messages; then run the final repair and gather the counters. The
// returned error reports harness-level failures (unknown object,
// invalid option combination, a fault or repair call that errored); a
// run that completed but failed to converge is NOT an error — it is
// Result.Converged == false, for the caller to assert.
func Run(cfg Config) (Result, error) {
	tl := cfg.Spec.Compile()
	s := tl.Spec
	if s.N < 2 {
		return Result{}, fmt.Errorf("chaos: need at least 2 replicas, got %d", s.N)
	}
	h, err := build(cfg, s)
	if err != nil {
		return Result{}, err
	}
	defer h.ctl.Close()

	var res Result
	// Delivery pacing gets its own stream, so it stays stable when a
	// mutator changes how much randomness it consumes.
	delRng := rand.New(rand.NewSource(s.Seed ^ 0xde11))

	crashed := map[int]bool{}
	partitioned, faulted := false, false
	for slot := 0; slot < s.Ops; slot++ {
		for _, ev := range tl.EventsAt(slot) {
			switch ev.Kind {
			case sim.EvRetire:
				// Churn and chaos keep their own down-sets; where both
				// are in one spec, a transition the replica already
				// made is skipped.
				if crashed[ev.Proc] {
					continue
				}
				err = h.ctl.Crash(ev.Proc)
				crashed[ev.Proc] = true
				res.Retires++
			case sim.EvRejoin:
				if !crashed[ev.Proc] {
					continue
				}
				err = h.ctl.Recover(ev.Proc)
				delete(crashed, ev.Proc)
				res.Rejoins++
			case sim.EvPartition:
				err = h.ctl.Partition(ev.Groups...)
				partitioned = true
				res.Partitions++
			case sim.EvPartialHeal:
				err = h.ctl.Partition(ev.Groups...)
				res.PartialHeals++
			case sim.EvHeal:
				// This may fire inside an open fault window: the
				// heal-round digest pulls then run over lossy links, and
				// the final repair must still close the gap.
				err = h.ctl.Heal()
				partitioned = false
				res.Heals++
			case sim.EvFaultOpen:
				err = h.ctl.FaultAll(ev.Drop, ev.Dup)
				faulted = true
				res.FaultWindows++
			case sim.EvFaultClose:
				err = h.ctl.FaultAll(0, 0)
				faulted = false
			case sim.EvResize:
				err = h.ctl.Resize(ev.Shards)
				res.Resizes++
			}
			if err != nil {
				return res, err
			}
			res.Trace = append(res.Trace, ev.String())
		}
		p := tl.Issuer[slot]
		if !crashed[p] {
			mutRng := rand.New(rand.NewSource(s.Seed ^ int64(slot)<<20 ^ int64(p)))
			h.update(p, fmt.Sprintf("k%d", tl.Key[slot]), mutRng)
			res.Issued++
		}
		for d := delRng.Intn(4); d > 0; d-- {
			if !h.ctl.Deliver() {
				break
			}
		}
	}

	down, err := finalRepair(h.ctl, crashed, partitioned, faulted)
	if err != nil {
		return res, err
	}
	res.Trace = append(res.Trace, fmt.Sprintf("repair: heal + recover %v + settle + sync round", down))

	res.Converged = h.ctl.Converged()
	res.SyncApplied, res.DupDropped = h.ctl.RepairStats()
	st := h.ctl.Stats()
	res.DroppedCrash, res.DroppedLink = st.DroppedCrash, st.DroppedLink
	res.Fingerprint = h.ctl.ScheduleFingerprint()
	if cfg.Record {
		cl, err := h.ctl.Classify()
		if err != nil {
			return res, err
		}
		res.Classification = &cl
	}
	return res, nil
}
