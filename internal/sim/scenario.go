package sim

// The scenario DSL: a declarative description of a large, messy run —
// replica churn, flash crowds, zipf-skewed key popularity, regional
// partitions that heal piecewise, clock-skewed sessions, lossy-link
// windows — compiled into a deterministic timeline that any backend
// can execute. The same ScenarioSpec always compiles to the same
// timeline (events, issuing replica per slot, key per slot): the spec
// plus a seed IS the run.
//
// Two executors consume a compiled timeline:
//
//   - internal/chaos.Run drives a real replicated-object cluster
//     through it (the public updatec API) and asserts convergence
//     after final repair — the correctness backend, and the one fault
//     harness: seeded chaos schedules are timelines too (ChaosSpec);
//   - sim.RunScale drives a bare transport.SimNetwork with synthetic
//     constant-work replicas — the capacity backend, scaling to 10⁶
//     simulated replicas for the parallel-adversary experiments.

import (
	"fmt"
	"math/rand"
	"sort"
)

// ZipfSpec skews key popularity: keys are drawn zipf-distributed over
// the key space instead of uniformly, so a few keys absorb most of the
// update traffic. S is the exponent (must be > 1; larger is more
// skewed), V the value offset (>= 1). The limit case of one scorching
// key is S large or Keys == 1.
type ZipfSpec struct {
	S, V float64
}

// ChurnSpec injects replica churn: Events retire/rejoin events are
// placed uniformly over the timeline. A retired replica stops
// receiving and issues nothing until it rejoins (in the cluster
// backend it later pulls what it missed by anti-entropy). MaxDown
// bounds how many replicas may be down at once; 0 means no bound — the
// whole cluster may be retired simultaneously, the zero-replica
// window, and the scenario must still converge after repair.
type ChurnSpec struct {
	Events  int
	MaxDown int
}

// FlashSpec injects flash crowds: Crowds windows, each covering Width
// of the timeline, during which a Focus fraction of the replicas
// (a contiguous block, fresh per crowd) issues updates at Boost times
// its base rate.
type FlashSpec struct {
	Crowds int
	Width  float64 // fraction of the timeline per crowd (default 0.1)
	Boost  float64 // rate multiplier inside the crowd (default 8)
	Focus  float64 // fraction of replicas in the crowd (default 0.25)
}

// RegionSpec injects regional partitions: the cluster is split into
// Regions contiguous regions, Cycles times over the timeline. With
// PartialHeals each cycle heals piecewise — regions merge one boundary
// at a time before the full heal — so the run exercises the
// intermediate topologies, not just split and healed.
type RegionSpec struct {
	Regions      int
	Cycles       int
	PartialHeals bool
}

// SkewSpec models clock-skewed sessions as issue-rate skew: replicas
// fall into eight rate classes, the fastest issuing (1 + MaxSkew)
// times as often as the slowest. Under Algorithm 1 a replica's Lamport
// clock advances with the updates it issues and delivers, so a faster
// session IS a replica whose logical clock runs ahead — the timestamp
// spread the paper's total order has to absorb.
type SkewSpec struct {
	MaxSkew float64
}

// FaultSpec opens lossy-link windows: Windows times, a window covering
// Width of the timeline during which every link drops and duplicates
// with the given probabilities. Windows may overlap partitions and
// heals — a heal during an open fault window is the adversarial case
// the final repair has to cover.
type FaultSpec struct {
	Windows   int
	Width     float64 // fraction of the timeline per window (default 0.15)
	Drop, Dup float64 // default 0.2 / 0.2
}

// ChaosSpec injects a seeded chaos schedule: Events fault events
// placed uniformly over the timeline, each picking uniformly among the
// actions feasible after the earlier ones — crash a live replica
// (keeping at least one alive), recover a crashed one, open a random
// two-sided partition, heal it, open a drop/dup window on every link,
// or close it. Replicas still down at the end stay down for the
// executor's final repair to recover. Default 12 events at 0.2/0.2.
type ChaosSpec struct {
	Events    int
	Drop, Dup float64
}

// ScenarioSpec is the declarative description of one scenario. Zero
// sub-specs mean a plain uniform workload; each non-nil sub-spec adds
// its dimension. Compile turns the spec into the deterministic
// timeline both backends execute.
type ScenarioSpec struct {
	// N replicas execute Ops update slots over a key space of Keys
	// keys. Defaults: N 4, Ops 400, Keys 16.
	N, Ops, Keys int
	// Seed fixes the compiled timeline and (with the worker count) the
	// network adversary's schedule.
	Seed int64
	// FIFO requests per-link FIFO delivery from the transport.
	FIFO bool
	// Resize, when positive, resizes the cluster to this shard count at
	// slot Ops/2, with the backlog in flight — recovery and repair must
	// compose with epoch-tagged routing.
	Resize int

	Zipf    *ZipfSpec
	Churn   *ChurnSpec
	Flash   *FlashSpec
	Regions *RegionSpec
	Skew    *SkewSpec
	Faults  *FaultSpec
	Chaos   *ChaosSpec
}

// EventKind is a timeline event type.
type EventKind int

// Timeline event kinds.
const (
	// EvRetire/EvRejoin are churn: the replica leaves (crashes) or
	// comes back (recovers, pulling what it missed).
	EvRetire EventKind = iota
	EvRejoin
	// EvPartition splits the cluster into the event's groups;
	// EvPartialHeal re-partitions with one boundary merged; EvHeal
	// restores full connectivity.
	EvPartition
	EvPartialHeal
	EvHeal
	// EvFaultOpen/EvFaultClose toggle the every-link drop/dup window.
	EvFaultOpen
	EvFaultClose
	// EvResize resizes the cluster to the event's shard count.
	EvResize
)

// Event is one compiled timeline event, fired before the update slot
// it is attached to.
type Event struct {
	Slot int
	Kind EventKind
	// Proc is the replica for EvRetire/EvRejoin.
	Proc int
	// Groups is the topology for EvPartition/EvPartialHeal.
	Groups [][]int
	// Drop/Dup are the probabilities for EvFaultOpen.
	Drop, Dup float64
	// Shards is the target shard count for EvResize.
	Shards int
}

// String renders the event for traces.
func (e Event) String() string {
	switch e.Kind {
	case EvRetire:
		return fmt.Sprintf("slot %4d: retire p%d", e.Slot, e.Proc)
	case EvRejoin:
		return fmt.Sprintf("slot %4d: rejoin p%d", e.Slot, e.Proc)
	case EvPartition:
		return fmt.Sprintf("slot %4d: partition %v", e.Slot, e.Groups)
	case EvPartialHeal:
		return fmt.Sprintf("slot %4d: partial heal to %v", e.Slot, e.Groups)
	case EvHeal:
		return fmt.Sprintf("slot %4d: heal", e.Slot)
	case EvFaultOpen:
		return fmt.Sprintf("slot %4d: fault window open (drop=%.2f dup=%.2f)", e.Slot, e.Drop, e.Dup)
	case EvResize:
		return fmt.Sprintf("slot %4d: resize to %d shards", e.Slot, e.Shards)
	default:
		return fmt.Sprintf("slot %4d: fault window closed", e.Slot)
	}
}

// Timeline is a compiled scenario: the events in slot order and, for
// every update slot, the issuing replica and the key index it updates.
// A timeline is a pure function of its spec — same spec, same
// timeline — and is executor-independent.
type Timeline struct {
	Spec   ScenarioSpec
	Events []Event
	Issuer []int
	Key    []int
}

// skewClasses is the number of issue-rate classes under SkewSpec.
const skewClasses = 8

// rateOf returns replica i's base issue rate under the spec's skew.
func (s *ScenarioSpec) rateOf(i int) float64 {
	if s.Skew == nil || s.Skew.MaxSkew <= 0 {
		return 1
	}
	return 1 + s.Skew.MaxSkew*float64(i%skewClasses)/float64(skewClasses-1)
}

// normalize fills in the documented defaults.
func (s ScenarioSpec) normalize() ScenarioSpec {
	if s.N <= 0 {
		s.N = 4
	}
	if s.Ops <= 0 {
		s.Ops = 400
	}
	if s.Keys <= 0 {
		s.Keys = 16
	}
	if s.Flash != nil {
		f := *s.Flash
		if f.Width <= 0 {
			f.Width = 0.1
		}
		if f.Boost <= 0 {
			f.Boost = 8
		}
		if f.Focus <= 0 {
			f.Focus = 0.25
		}
		s.Flash = &f
	}
	if s.Faults != nil {
		f := *s.Faults
		if f.Width <= 0 {
			f.Width = 0.15
		}
		if f.Drop == 0 && f.Dup == 0 {
			f.Drop, f.Dup = 0.2, 0.2
		}
		s.Faults = &f
	}
	if s.Chaos != nil {
		c := *s.Chaos
		if c.Events <= 0 {
			c.Events = 12
		}
		if c.Drop == 0 && c.Dup == 0 {
			c.Drop, c.Dup = 0.2, 0.2
		}
		s.Chaos = &c
	}
	if s.Regions != nil {
		r := *s.Regions
		if r.Regions < 2 {
			r.Regions = 3
		}
		if r.Regions > s.N {
			r.Regions = s.N
		}
		if r.Cycles <= 0 {
			r.Cycles = 1
		}
		s.Regions = &r
	}
	return s
}

// regionGroups splits [0, n) into k contiguous regions with the first
// `merged` boundaries removed (merged == 0 is the full split, k-1 is
// one group).
func regionGroups(n, k, merged int) [][]int {
	bounds := []int{0}
	for r := 1; r < k; r++ {
		bounds = append(bounds, r*n/k)
	}
	bounds = append(bounds, n)
	// Remove the first `merged` interior boundaries.
	interior := bounds[1 : len(bounds)-1]
	kept := interior[merged:]
	var groups [][]int
	lo := 0
	for _, b := range append(kept, n) {
		g := make([]int, 0, b-lo)
		for p := lo; p < b; p++ {
			g = append(g, p)
		}
		groups = append(groups, g)
		lo = b
	}
	return groups
}

// procs lists the replicas in [0, n) whose mark equals want, in id
// order.
func procs(n int, marked map[int]bool, want bool) []int {
	var ps []int
	for p := 0; p < n; p++ {
		if marked[p] == want {
			ps = append(ps, p)
		}
	}
	return ps
}

// Compile turns the spec into its deterministic timeline. Three
// independent rng streams — events, issuers, keys — keep each
// dimension stable when another's spec changes how much randomness it
// consumes. Chaos draws last from the events stream, so adding it
// leaves every other dimension's events where they were.
func (s ScenarioSpec) Compile() Timeline {
	s = s.normalize()
	evRng := rand.New(rand.NewSource(s.Seed ^ 0x5c4ed0))
	workRng := rand.New(rand.NewSource(s.Seed ^ 0x0b5e55))
	keyRng := rand.New(rand.NewSource(s.Seed ^ 0x7e1ead))
	tl := Timeline{Spec: s}

	// Churn: walk the chosen slots keeping the down-set feasible.
	if c := s.Churn; c != nil && c.Events > 0 {
		maxDown := c.MaxDown
		if maxDown <= 0 || maxDown > s.N {
			maxDown = s.N
		}
		slots := make([]int, c.Events)
		for i := range slots {
			slots[i] = evRng.Intn(s.Ops)
		}
		sort.Ints(slots)
		down := map[int]bool{}
		for _, slot := range slots {
			retire := len(down) == 0 || (len(down) < maxDown && evRng.Intn(2) == 0)
			if retire {
				live := procs(s.N, down, false)
				p := live[evRng.Intn(len(live))]
				down[p] = true
				tl.Events = append(tl.Events, Event{Slot: slot, Kind: EvRetire, Proc: p})
			} else {
				gone := procs(s.N, down, true)
				p := gone[evRng.Intn(len(gone))]
				delete(down, p)
				tl.Events = append(tl.Events, Event{Slot: slot, Kind: EvRejoin, Proc: p})
			}
		}
		// Rejoin everyone still down, before the end of the timeline,
		// so final repair starts from a fully-live cluster.
		for _, p := range procs(s.N, down, true) {
			tl.Events = append(tl.Events, Event{Slot: s.Ops - 1, Kind: EvRejoin, Proc: p})
		}
	}

	// Regional partitions, each cycle: split, optional piecewise
	// merges, full heal.
	if r := s.Regions; r != nil {
		span := s.Ops / r.Cycles
		for cyc := 0; cyc < r.Cycles; cyc++ {
			lo := cyc * span
			start := lo + evRng.Intn(span/4+1)
			dur := span / 2
			tl.Events = append(tl.Events, Event{Slot: start, Kind: EvPartition, Groups: regionGroups(s.N, r.Regions, 0)})
			if r.PartialHeals && r.Regions > 2 {
				for m := 1; m < r.Regions-1; m++ {
					at := start + m*dur/r.Regions
					tl.Events = append(tl.Events, Event{Slot: at, Kind: EvPartialHeal, Groups: regionGroups(s.N, r.Regions, m)})
				}
			}
			tl.Events = append(tl.Events, Event{Slot: start + dur, Kind: EvHeal})
		}
	}

	// Fault windows.
	if f := s.Faults; f != nil && f.Windows > 0 {
		width := int(f.Width * float64(s.Ops))
		if width < 1 {
			width = 1
		}
		for w := 0; w < f.Windows; w++ {
			start := evRng.Intn(s.Ops)
			end := start + width
			if end > s.Ops-1 {
				end = s.Ops - 1
			}
			tl.Events = append(tl.Events, Event{Slot: start, Kind: EvFaultOpen, Drop: f.Drop, Dup: f.Dup})
			tl.Events = append(tl.Events, Event{Slot: end, Kind: EvFaultClose})
		}
	}

	// Flash-crowd windows, precomputed per slot: which crowd (if any)
	// covers it.
	type crowd struct {
		from, to int // slot range
		flo, fhi int // focus replica range
		pFlash   float64
	}
	var crowds []crowd
	if f := s.Flash; f != nil && f.Crowds > 0 {
		width := int(f.Width * float64(s.Ops))
		if width < 1 {
			width = 1
		}
		focus := int(f.Focus * float64(s.N))
		if focus < 1 {
			focus = 1
		}
		if focus > s.N {
			focus = s.N
		}
		for i := 0; i < f.Crowds; i++ {
			start := evRng.Intn(s.Ops)
			flo := 0
			if s.N > focus {
				flo = evRng.Intn(s.N - focus + 1)
			}
			// The crowd's share of the issue rate: focus replicas at
			// Boost times base rate versus the rest at base rate.
			pf := f.Boost * float64(focus) / (f.Boost*float64(focus) + float64(s.N-focus))
			crowds = append(crowds, crowd{from: start, to: start + width, flo: flo, fhi: flo + focus, pFlash: pf})
		}
	}

	// Chaos: walk the chosen slots in order, picking uniformly among
	// the actions the earlier picks left feasible. The enumeration
	// order is fixed, so the pick is seed-stable.
	if c := s.Chaos; c != nil {
		slots := make([]int, c.Events)
		for i := range slots {
			slots[i] = evRng.Intn(s.Ops)
		}
		sort.Ints(slots)
		down := map[int]bool{}
		partitioned, faulted := false, false
		for _, slot := range slots {
			var kinds []EventKind
			if len(down) < s.N-1 {
				kinds = append(kinds, EvRetire)
			}
			if len(down) > 0 {
				kinds = append(kinds, EvRejoin)
			}
			if partitioned {
				kinds = append(kinds, EvHeal)
			} else if s.N >= 2 {
				kinds = append(kinds, EvPartition)
			}
			if faulted {
				kinds = append(kinds, EvFaultClose)
			} else {
				kinds = append(kinds, EvFaultOpen)
			}
			ev := Event{Slot: slot, Kind: kinds[evRng.Intn(len(kinds))]}
			switch ev.Kind {
			case EvRetire:
				live := procs(s.N, down, false)
				ev.Proc = live[evRng.Intn(len(live))]
				down[ev.Proc] = true
			case EvRejoin:
				gone := procs(s.N, down, true)
				ev.Proc = gone[evRng.Intn(len(gone))]
				delete(down, ev.Proc)
			case EvPartition:
				// A random non-trivial two-sided split.
				side := map[int]bool{}
				for p := 0; p < s.N; p++ {
					if evRng.Intn(2) == 0 {
						side[p] = true
					}
				}
				if len(side) == 0 || len(side) == s.N {
					side = map[int]bool{evRng.Intn(s.N): true}
				}
				ev.Groups = [][]int{procs(s.N, side, true), procs(s.N, side, false)}
				partitioned = true
			case EvHeal:
				partitioned = false
			case EvFaultOpen:
				ev.Drop, ev.Dup = c.Drop, c.Dup
				faulted = true
			case EvFaultClose:
				faulted = false
			}
			tl.Events = append(tl.Events, ev)
		}
	}
	if s.Resize > 0 {
		tl.Events = append(tl.Events, Event{Slot: s.Ops / 2, Kind: EvResize, Shards: s.Resize})
	}
	sort.SliceStable(tl.Events, func(i, j int) bool { return tl.Events[i].Slot < tl.Events[j].Slot })

	// Per-slot issuers: skew-class weighted sampling, overridden by an
	// active flash crowd with its crowd-share probability.
	classCount := make([]int, skewClasses)
	classW := make([]float64, skewClasses)
	var totalW float64
	for c := 0; c < skewClasses; c++ {
		classCount[c] = (s.N - c + skewClasses - 1) / skewClasses
		if c < s.N {
			classW[c] = float64(classCount[c]) * s.rateOf(c)
			totalW += classW[c]
		}
	}
	pickSkewed := func() int {
		x := workRng.Float64() * totalW
		for c := 0; c < skewClasses; c++ {
			if x < classW[c] || c == skewClasses-1 {
				if classCount[c] == 0 {
					break
				}
				return c + skewClasses*workRng.Intn(classCount[c])
			}
			x -= classW[c]
		}
		return workRng.Intn(s.N)
	}
	tl.Issuer = make([]int, s.Ops)
	for slot := 0; slot < s.Ops; slot++ {
		issuer := -1
		for _, cr := range crowds {
			if slot >= cr.from && slot < cr.to && workRng.Float64() < cr.pFlash {
				issuer = cr.flo + workRng.Intn(cr.fhi-cr.flo)
				break
			}
		}
		if issuer < 0 {
			issuer = pickSkewed()
		}
		tl.Issuer[slot] = issuer
	}

	// Per-slot keys: zipf-skewed or uniform over the key space.
	tl.Key = make([]int, s.Ops)
	if z := s.Zipf; z != nil && s.Keys > 1 {
		sExp, v := z.S, z.V
		if sExp <= 1 {
			sExp = 1.5
		}
		if v < 1 {
			v = 1
		}
		zipf := rand.NewZipf(keyRng, sExp, v, uint64(s.Keys-1))
		for slot := range tl.Key {
			tl.Key[slot] = int(zipf.Uint64())
		}
	} else {
		for slot := range tl.Key {
			tl.Key[slot] = keyRng.Intn(s.Keys)
		}
	}
	return tl
}

// EventsAt returns the events attached to one slot, in compiled order.
// Executors walk the slot range and fire these before issuing the
// slot's update.
func (tl *Timeline) EventsAt(slot int) []Event {
	lo := sort.Search(len(tl.Events), func(i int) bool { return tl.Events[i].Slot >= slot })
	hi := lo
	for hi < len(tl.Events) && tl.Events[hi].Slot == slot {
		hi++
	}
	return tl.Events[lo:hi]
}

// Presets returns the named scenario library `ucsim -scenario` and the
// tests draw from. Every preset leaves N/Ops/Seed adjustable by the
// caller; zero values take the DSL defaults.
func Presets() map[string]ScenarioSpec {
	return map[string]ScenarioSpec{
		"churn": {
			Churn: &ChurnSpec{Events: 12},
		},
		"flash": {
			Flash: &FlashSpec{Crowds: 3, Width: 0.15, Boost: 10, Focus: 0.25},
		},
		"zipf-hot": {
			Zipf: &ZipfSpec{S: 3.0, V: 1},
		},
		"regions": {
			Regions: &RegionSpec{Regions: 3, Cycles: 2, PartialHeals: true},
		},
		"skew": {
			Skew: &SkewSpec{MaxSkew: 4},
		},
		"mixed": {
			Churn:   &ChurnSpec{Events: 8},
			Flash:   &FlashSpec{Crowds: 2, Width: 0.1, Boost: 8, Focus: 0.25},
			Zipf:    &ZipfSpec{S: 1.8, V: 2},
			Regions: &RegionSpec{Regions: 3, Cycles: 1, PartialHeals: true},
			Skew:    &SkewSpec{MaxSkew: 2},
			Faults:  &FaultSpec{Windows: 2, Width: 0.1, Drop: 0.15, Dup: 0.15},
		},
	}
}
