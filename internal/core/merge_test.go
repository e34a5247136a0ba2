package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// insertEach is the reference MergeDedup is held to: the batch landed
// one entry at a time through InsertDedup, with late and first counted
// the way the per-entry repair loop counted them.
func insertEach(l *Log, batch []Entry) (applied, late, first int) {
	first = -1
	for _, e := range batch {
		at, ok := l.InsertDedup(e)
		if !ok {
			continue
		}
		applied++
		if at != l.Len()-1 {
			late++
		}
		if first < 0 || at < first {
			first = at
		}
	}
	if first < 0 {
		first = l.Len()
	}
	return applied, late, first
}

// mergeCase builds one log twice (merge side and reference side) plus a
// batch drawn from the same small timestamp space, so collisions with
// the log and within the batch are common.
type mergeCase struct {
	name    string
	build   func(rng *rand.Rand) *Log
	entry   func(rng *rand.Rand) Entry
	horizon bool // some batch entries fall at or below the base horizon
}

func setEntry(rng *rand.Rand) Entry {
	u := spec.Update(spec.Ins{V: fmt.Sprint(rng.Intn(4))})
	if rng.Intn(3) == 0 {
		u = spec.Del{V: fmt.Sprint(rng.Intn(4))}
	}
	return Entry{TS: ts(uint64(1+rng.Intn(60)), rng.Intn(3)), U: u}
}

func keyedEntry(rng *rand.Rand) Entry {
	return Entry{
		TS: ts(uint64(20+rng.Intn(30)), rng.Intn(2)),
		U:  spec.AddKey{K: string(rune('a' + rng.Intn(4))), N: 1},
	}
}

func fill(l *Log, rng *rand.Rand, n int, entry func(*rand.Rand) Entry) {
	for i := 0; i < n; i++ {
		e := entry(rng)
		if !l.Covers(e.TS) {
			l.InsertDedup(e)
		}
	}
}

var mergeCases = []mergeCase{
	{name: "plain", entry: setEntry, build: func(rng *rand.Rand) *Log {
		l := NewLog(spec.Set())
		fill(l, rng, rng.Intn(50), setEntry)
		return l
	}},
	{name: "seeded-tiekey", entry: keyedEntry, build: func(rng *rand.Rand) *Log {
		// A resharded log: a SeedBase horizon at clock 20 that live
		// entries may equal, and (clock, proc) collisions across keys.
		adt := spec.CounterMap()
		l := NewLog(adt)
		l.SetTieKey(adt.UpdateKey)
		l.SeedBase(adt.Initial(), ts(20, 1), 0)
		fill(l, rng, rng.Intn(50), keyedEntry)
		return l
	}},
	{name: "merged-base", entry: setEntry, horizon: true, build: func(rng *rand.Rand) *Log {
		// A base installed by MergeSnapshot: below-horizon arrivals are
		// redeliveries, dropped like duplicates.
		l := NewLog(spec.Set())
		fill(l, rng, 40, setEntry)
		l.CompactBelow(uint64(10 + rng.Intn(20)))
		l.merged = true
		return l
	}},
}

// TestMergeDedupMatchesPerEntryInsert: one batch merge leaves exactly
// the log, version and counts that the per-entry InsertDedup loop
// leaves. Every third batch is unsorted; there only the late count may
// differ, since the per-entry count depends on arrival order.
func TestMergeDedupMatchesPerEntryInsert(t *testing.T) {
	for _, mc := range mergeCases {
		for seed := int64(0); seed < 300; seed++ {
			sorted := seed%3 != 0
			rng := rand.New(rand.NewSource(seed))
			got := mc.build(rng)
			want := mc.build(rand.New(rand.NewSource(seed)))
			before := slices.Clone(got.Entries())
			batch := make([]Entry, rng.Intn(60))
			for i := range batch {
				batch[i] = mc.entry(rng)
			}
			if sorted {
				slices.SortStableFunc(batch, func(a, b Entry) int {
					switch {
					case got.less(a, b):
						return -1
					case got.less(b, a):
						return 1
					}
					return 0
				})
			}
			ref := slices.Clone(batch)
			if !mc.horizon {
				// Only a merged base may see below-horizon entries.
				ref = slices.DeleteFunc(ref, func(e Entry) bool { return want.Covers(e.TS) })
				batch = slices.Clone(ref)
			}
			wa, wl, wf := insertEach(want, ref)
			ga, gl, gf := got.MergeDedup(batch)
			where := fmt.Sprintf("%s seed %d (sorted=%v)", mc.name, seed, sorted)
			if !sameEntries(got.Entries(), want.Entries()) {
				t.Fatalf("%s: merged log differs from per-entry inserts:\n got %v\nwant %v", where, got.Entries(), want.Entries())
			}
			if got.Version() != want.Version() || ga != wa {
				t.Fatalf("%s: version/applied %d/%d, want %d/%d", where, got.Version(), ga, want.Version(), wa)
			}
			if !isSubsequence(batch[:ga], got.Entries()) {
				t.Fatalf("%s: batch[:applied] %v is not in log order", where, batch[:ga])
			}
			if gf > len(before) || !sameEntries(got.Entries()[:gf], before[:gf]) {
				t.Fatalf("%s: prefix before first=%d moved", where, gf)
			}
			if gf != wf {
				t.Fatalf("%s: first %d, want %d", where, gf, wf)
			}
			if sorted && gl != wl {
				t.Fatalf("%s: late %d, want %d", where, gl, wl)
			}
		}
	}
}

// sameEntries compares entry lists element-wise (nil equals empty).
func sameEntries(a, b []Entry) bool {
	return slices.EqualFunc(a, b, func(x, y Entry) bool { return reflect.DeepEqual(x, y) })
}

// isSubsequence reports whether sub appears in all, in order.
func isSubsequence(sub, all []Entry) bool {
	i := 0
	for _, e := range all {
		if i < len(sub) && reflect.DeepEqual(e, sub[i]) {
			i++
		}
	}
	return i == len(sub)
}

// TestMergeDedupBelowOwnHorizonPanics: a log whose base came from its
// own CompactBelow keeps InsertDedup's stability panic for a batch
// entry at or below the horizon — and panics before landing anything.
func TestMergeDedupBelowOwnHorizonPanics(t *testing.T) {
	l := NewLog(spec.Set())
	for c := uint64(1); c <= 10; c++ {
		l.Insert(Entry{TS: ts(c, 0), U: ins(fmt.Sprint(c))})
	}
	l.CompactBelow(5)
	ver, n := l.Version(), l.Len()
	batch := []Entry{{TS: ts(4, 1), U: ins("low")}, {TS: ts(20, 1), U: ins("high")}}
	for _, land := range []func(){
		func() { insertEach(l, slices.Clone(batch)) },
		func() { l.MergeDedup(slices.Clone(batch)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("below-horizon entry on a self-compacted base did not panic")
				}
			}()
			land()
		}()
		if l.Version() != ver || l.Len() != n {
			t.Fatal("a panicking insert landed entries")
		}
	}
}

// syncApplyEach is the per-entry ApplySync this package used before
// the batch merge, kept as the reference for the replica-level test.
func syncApplyEach(r *Replica, payload []byte) int {
	batch, err := r.decodeSyncReply(payload)
	if err != nil {
		panic(err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	for _, e := range batch {
		if r.log.Covers(e.TS) {
			continue
		}
		if r.insertLocked(e.TS, e.U) {
			applied++
		}
	}
	r.syncApplied += uint64(applied)
	return applied
}

// TestApplySyncMatchesPerEntryLanding is heal-shaped: a receiver holds
// its own run interleaved by timestamp with the donor's, plus a gappy
// subset of the donor's (so the donor sends everything for that origin
// and duplicates arrive), and has compacted after taking its digest (so
// covered frames arrive too). One batch ApplySync must leave the same
// counters, coverage, clock and state as the per-entry loop.
func TestApplySyncMatchesPerEntryLanding(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		mk := func(id int) *Replica {
			net := transport.NewSim(transport.SimOptions{N: 3, Seed: seed})
			return NewReplica(Config{ID: id, N: 3, ADT: spec.Log(), Net: net, Engine: NewUndoEngine()})
		}
		donor, got, want := mk(1), mk(0), mk(0)
		for c := uint64(1); c <= 400; c++ {
			e := Entry{TS: ts(c, int(c%3)), U: spec.Append{V: fmt.Sprint(c)}}
			if e.TS.Proc != 0 {
				donor.Absorb(e.TS, e.U)
			}
			if e.TS.Proc == 0 || rng.Intn(4) == 0 {
				got.Absorb(e.TS, e.U)
				want.Absorb(e.TS, e.U)
			}
		}
		payload, err := donor.SyncReply(got.Digest())
		if err != nil || payload == nil {
			t.Fatalf("seed %d: SyncReply = %v, %v", seed, len(payload), err)
		}
		horizon := uint64(rng.Intn(100))
		for _, r := range []*Replica{got, want} {
			r.mu.Lock()
			r.log.CompactBelow(horizon)
			r.engine.Bind(r.adt, r.log)
			r.mu.Unlock()
		}
		applied, err := got.ApplySync(payload)
		if err != nil {
			t.Fatal(err)
		}
		if wa := syncApplyEach(want, payload); applied != wa {
			t.Fatalf("seed %d: applied %d, want %d", seed, applied, wa)
		}
		gs, ws := got.Stats(), want.Stats()
		if gs != ws {
			t.Fatalf("seed %d: stats %+v, want %+v", seed, gs, ws)
		}
		if ws.LateInserts == 0 || ws.DupDropped == 0 {
			t.Fatalf("seed %d: workload lacks late inserts or duplicates: %+v", seed, ws)
		}
		if !reflect.DeepEqual(got.Coverage(), want.Coverage()) {
			t.Fatalf("seed %d: coverage %v, want %v", seed, got.Coverage(), want.Coverage())
		}
		if got.clk.Now() != want.clk.Now() || got.log.Version() != want.log.Version() {
			t.Fatalf("seed %d: clock/version %d/%d, want %d/%d", seed,
				got.clk.Now(), got.log.Version(), want.clk.Now(), want.log.Version())
		}
		if got.StateKey() != want.StateKey() || got.StateKey() != adtKey(got) {
			t.Fatalf("seed %d: state diverges from the per-entry reference", seed)
		}
	}
}

// adtKey recomputes the state key by full replay, bypassing the engine.
func adtKey(r *Replica) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.adt.KeyState(r.log.Replay())
}
