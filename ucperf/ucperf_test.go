package main

import (
	"math/rand"
	"reflect"
	"testing"

	"updatec"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// The traced run measures the same program only if the decorated spec
// exposes exactly the optional capabilities of the counter map: a
// missing QueryKeyer would turn the query cache off, a missing
// AppendCodec would change the encode path.
func TestTracedSpecCapabilities(t *testing.T) {
	capabilities := map[string]reflect.Type{
		"Codec":          reflect.TypeFor[spec.Codec](),
		"AppendCodec":    reflect.TypeFor[spec.AppendCodec](),
		"Undoable":       reflect.TypeFor[spec.Undoable](),
		"Partitionable":  reflect.TypeFor[spec.Partitionable](),
		"QueryKeyer":     reflect.TypeFor[spec.QueryKeyer](),
		"StateCodec":     reflect.TypeFor[spec.StateCodec](),
		"Commutative":    reflect.TypeFor[spec.Commutative](),
		"StateExplainer": reflect.TypeFor[spec.StateExplainer](),
	}
	plain := reflect.TypeOf(spec.CounterMap())
	traced := reflect.TypeOf(tracedSpec{})
	for name, iface := range capabilities {
		if got, want := traced.Implements(iface), plain.Implements(iface); got != want {
			t.Errorf("%s: traced spec implements=%v, counter map implements=%v", name, got, want)
		}
	}
	networks := map[string]reflect.Type{
		"Network":          reflect.TypeFor[transport.Network](),
		"ShardedNetwork":   reflect.TypeFor[transport.ShardedNetwork](),
		"ResizableNetwork": reflect.TypeFor[transport.ResizableNetwork](),
	}
	for name, iface := range networks {
		for _, base := range []reflect.Type{reflect.TypeOf(&transport.LiveNetwork{}), reflect.TypeOf(&transport.SimNetwork{})} {
			if got, want := reflect.TypeOf(&tracedNet{}).Implements(iface), base.Implements(iface); got != want {
				t.Errorf("%s: traced network implements=%v, %v implements=%v", name, got, base, want)
			}
		}
	}
}

func healSteps(t *testing.T, c *cluster, keys []int) [][]string {
	t.Helper()
	c.partition()
	for i, k := range keys {
		c.h[i%3].Add(keyNames[k], 1)
	}
	if err := c.heal(); err != nil {
		t.Fatal(err)
	}
	c.settle()
	alls := make([][]string, len(c.h))
	for i, h := range c.h {
		alls[i] = h.All()
	}
	return alls
}

// A traced heal must reproduce the untraced one exactly: same delivery
// schedule, same final state, same repair and late-insert counts. The
// core-assembled cluster must in turn reproduce updatec.New's.
func TestTracedHealMatchesUntraced(t *testing.T) {
	const seed = 42
	keys := drawUniform(rand.New(rand.NewSource(7)), 3*2000)
	s := int64(seed)

	plain := newCoreCluster(&s, nil)
	plainAlls := healSteps(t, plain, keys)
	tr := newTracer(1<<16, 1<<16)
	tr.reset()
	traced := newCoreCluster(&s, tr)
	tracedAlls := healSteps(t, traced, keys)

	if a, b := plain.sim.ScheduleFingerprint(), traced.sim.ScheduleFingerprint(); a != b {
		t.Errorf("schedule fingerprint: untraced %x, traced %x", a, b)
	}
	pst, _, _ := plain.layerStats()
	tst, _, _ := traced.layerStats()
	if pst != tst {
		t.Errorf("replica counters: untraced %+v, traced %+v", pst, tst)
	}
	if pst.SyncApplied == 0 || pst.DupDropped == 0 || pst.LateInserts == 0 {
		t.Errorf("heal did no repair work: %+v", pst)
	}
	for i := range plain.reps {
		if a, b := plain.reps[i].StateKey(), traced.reps[i].StateKey(); a != b {
			t.Errorf("replica %d state key differs", i)
		}
	}
	if !reflect.DeepEqual(plainAlls, tracedAlls) {
		t.Error("whole-state reads differ between untraced and traced")
	}
	if len(tr.recorded()) == 0 {
		t.Error("traced heal recorded nothing")
	}

	cl, hs, err := updatec.New(3, updatec.CounterMapObject(), updatec.WithSeed(seed), updatec.WithFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Partition([]int{0}, []int{1}, []int{2}); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		hs[i%3].Inc(keyNames[k])
	}
	if err := cl.Heal(); err != nil {
		t.Fatal(err)
	}
	cl.Settle()
	for i, h := range hs {
		if !reflect.DeepEqual(h.All(), plainAlls[i]) {
			t.Errorf("replica %d: updatec.New state differs from the core-assembled cluster", i)
		}
	}
	if syncs, dups := cl.RepairStats(); syncs != pst.SyncApplied || dups != pst.DupDropped {
		t.Errorf("repair counts: updatec.New %d/%d, core-assembled %d/%d", syncs, dups, pst.SyncApplied, pst.DupDropped)
	}
}

// Every workload passes its correctness gate untraced and traced on a
// small round; run with -race this also exercises the tracer from the
// delivery goroutines.
func TestRoundsPassGate(t *testing.T) {
	small := map[string]int{"live-write": 3000, "live-readmix": 600, "heal": 900, "wire": 500}
	for name, n := range small {
		for _, traced := range []bool{false, true} {
			var tr *tracer
			if traced {
				tr = newTracer(1<<16, 1<<16)
			}
			r, err := workloads[name].run(rand.New(rand.NewSource(1)), tr, n)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if r.failed != 0 || r.fatal || r.ops < n {
				t.Errorf("%s traced=%v: ops=%d failed=%d fatal=%v", name, traced, r.ops, r.failed, r.fatal)
			}
			if traced && len(r.layers) == 0 {
				t.Errorf("%s traced: no per-layer metrics", name)
			}
		}
	}
}

func TestMissingCountsUpdates(t *testing.T) {
	want := make([]int64, nKeys)
	want[3], want[7] = 2, 1
	good := []string{"k0003=2", "k0007=1"}
	if got := missing([][]string{good, good, good}, want); got != 0 {
		t.Errorf("converged replicas: missing=%d, want 0", got)
	}
	if got := missing([][]string{good, {"k0003=1", "k0007=1"}, good}, want); got != 1 {
		t.Errorf("one update lost at one replica: missing=%d, want 1", got)
	}
	if got := missing([][]string{good, good, {"k0003=2", "k0007=1", "k0009=4"}}, want); got != 4 {
		t.Errorf("four extra updates: missing=%d, want 4", got)
	}
	if got := missing([][]string{good, good, {"bogus"}}, want); got == 0 {
		t.Error("unparseable entry not counted")
	}
}
