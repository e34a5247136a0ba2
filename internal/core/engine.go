package core

import (
	"fmt"

	"updatec/internal/spec"
)

// Engine computes the query-time state of Algorithm 1. The paper's
// literal algorithm replays the whole update list on every query
// (ReplayEngine); §VII-C notes that "in an effective implementation, a
// process can keep intermediate states", re-computed "only if very
// late messages arrive" (CheckpointEngine), and cites Karsenty &
// Beaudouin-Lafon's undo-based scheme for splicing late updates
// without replay (UndoEngine). All three engines produce identical
// states — the ablation benchmarks (experiment E8) measure only their
// cost.
//
// Engines are driven by their replica under its lock; State and the
// mutating notifications (Bind, Inserted) require the exclusive lock,
// while StateConcurrent may run under a shared lock concurrently with
// other StateConcurrent calls.
type Engine interface {
	// Name identifies the engine in benchmark tables.
	Name() string
	// Bind attaches the engine to a log. It is called once before use
	// and again after log compaction (the engine must drop caches that
	// referenced compacted entries).
	Bind(adt spec.UQADT, log *Log)
	// Inserted notifies the engine that one or more entries just landed
	// at positions ≥ at; the prefix log.Entries()[:at] is unchanged. A
	// single insert reports its own position, a batch merge
	// (Log.MergeDedup) its lowest one.
	Inserted(at int)
	// State returns the state after all live entries (on top of the
	// log's base). The caller treats it as read-only and does not
	// retain it across mutations.
	State() spec.State
	// StateConcurrent returns the same state as State when it can do so
	// without mutating any engine-internal structure — i.e. when the
	// call is safe under a shared lock concurrently with other readers.
	// ok=false means the caller must fall back to State under an
	// exclusive lock (e.g. a checkpoint engine that would have to
	// record a new snapshot).
	StateConcurrent() (s spec.State, ok bool)
}

// ReplayEngine is line 14–17 of Algorithm 1 verbatim: every query
// replays the whole update list from the initial state. O(|log|) per
// query, O(1) per insert.
type ReplayEngine struct {
	adt spec.UQADT
	log *Log
}

// NewReplayEngine returns the paper's literal query engine.
func NewReplayEngine() *ReplayEngine { return &ReplayEngine{} }

// Name implements Engine.
func (*ReplayEngine) Name() string { return "replay" }

// Bind implements Engine.
func (e *ReplayEngine) Bind(adt spec.UQADT, log *Log) { e.adt, e.log = adt, log }

// Inserted implements Engine.
func (*ReplayEngine) Inserted(int) {}

// State implements Engine.
func (e *ReplayEngine) State() spec.State { return e.log.Replay() }

// StateConcurrent implements Engine: a replay builds a fresh state
// from the (reader-locked) log and touches no engine state, so it is
// always safe to run concurrently.
func (e *ReplayEngine) StateConcurrent() (spec.State, bool) { return e.log.Replay(), true }

// DefaultMaxMarks bounds the number of retained checkpoints when
// NewCheckpointEngine is used; NewCheckpointEngineCapped overrides it.
const DefaultMaxMarks = 64

// CheckpointEngine keeps a snapshot of the state every interval
// entries. A query replays only from the last snapshot; a late
// insertion invalidates the snapshots after its position (the
// "intermediate states are re-computed only if very late messages
// arrive" optimization of §VII-C). O(interval + staleness) per query.
//
// The number of retained snapshots is capped: when the cap is reached
// the oldest mark is dropped and its slot reused, so the engine's
// clone-retention cost is bounded by maxMarks regardless of log
// growth. A very late insert landing before the oldest retained mark
// then rebuilds from the log base — the price of the bound.
type CheckpointEngine struct {
	adt      spec.UQADT
	log      *Log
	interval int
	maxMarks int
	// marks[i] is the snapshot after applying the first marks[i].n live
	// entries on top of the base.
	marks []checkpoint
}

type checkpoint struct {
	n     int
	state spec.State
}

// NewCheckpointEngine returns a snapshotting engine; interval must be
// positive (a typical value is 64). At most DefaultMaxMarks snapshots
// are retained.
func NewCheckpointEngine(interval int) *CheckpointEngine {
	return NewCheckpointEngineCapped(interval, DefaultMaxMarks)
}

// NewCheckpointEngineCapped returns a snapshotting engine retaining at
// most maxMarks snapshots; interval and maxMarks must be positive.
func NewCheckpointEngineCapped(interval, maxMarks int) *CheckpointEngine {
	if interval <= 0 {
		panic("core: checkpoint interval must be positive")
	}
	if maxMarks <= 0 {
		panic("core: checkpoint mark cap must be positive")
	}
	return &CheckpointEngine{interval: interval, maxMarks: maxMarks}
}

// Name implements Engine.
func (e *CheckpointEngine) Name() string {
	return fmt.Sprintf("checkpoint(%d)", e.interval)
}

// Bind implements Engine. The mark slice's storage is reused across
// rebinds (compaction rebinds after every fold).
func (e *CheckpointEngine) Bind(adt spec.UQADT, log *Log) {
	e.adt, e.log = adt, log
	e.marks = e.marks[:0]
}

// Inserted implements Engine: snapshots past the insertion point are
// stale; a mark covering at most the unchanged prefix stays valid.
func (e *CheckpointEngine) Inserted(at int) {
	keep := len(e.marks)
	for keep > 0 && e.marks[keep-1].n > at {
		keep--
	}
	e.marks = e.marks[:keep]
}

// record appends a snapshot, dropping the oldest mark when the cap is
// reached (the slot storage is reused in place).
func (e *CheckpointEngine) record(c checkpoint) {
	if len(e.marks) == e.maxMarks {
		copy(e.marks, e.marks[1:])
		e.marks[len(e.marks)-1] = c
		return
	}
	e.marks = append(e.marks, c)
}

// marksDue reports whether replaying the tail past the last mark
// would record a new snapshot — i.e. some multiple of interval lies
// past the last mark within the live entries. It is the single
// predicate deciding whether replay(true) mutates the engine.
func (e *CheckpointEngine) marksDue() bool {
	start := 0
	if len(e.marks) > 0 {
		start = e.marks[len(e.marks)-1].n
	}
	return (len(e.log.Entries())/e.interval)*e.interval > start
}

// replay builds the current state from the last mark (or the base).
// With record set it snapshots along the way; without it the call is
// read-only, and a fully caught-up engine shares the last mark's
// state directly instead of cloning (callers treat states as
// read-only, so sharing is safe — the undo engine does the same).
func (e *CheckpointEngine) replay(record bool) spec.State {
	entries := e.log.Entries()
	start := 0
	var s spec.State
	if len(e.marks) > 0 {
		last := e.marks[len(e.marks)-1]
		start = last.n
		if !record && start == len(entries) {
			return last.state
		}
		s = e.adt.Clone(last.state)
	} else {
		s = e.log.BaseState()
	}
	for i := start; i < len(entries); i++ {
		s = e.adt.Apply(s, entries[i].U)
		applied := i + 1
		if record && applied%e.interval == 0 && (len(e.marks) == 0 || e.marks[len(e.marks)-1].n < applied) {
			e.record(checkpoint{n: applied, state: e.adt.Clone(s)})
		}
	}
	return s
}

// State implements Engine.
func (e *CheckpointEngine) State() spec.State { return e.replay(true) }

// StateConcurrent implements Engine: safe only when the replay would
// not record a new snapshot, because recording mutates the engine.
func (e *CheckpointEngine) StateConcurrent() (spec.State, bool) {
	if e.marksDue() {
		return nil, false
	}
	return e.replay(false), true
}

// UndoEngine maintains the current state plus an undo closure per live
// entry; a late insertion at position p undoes the suffix beyond p,
// applies the new update, and redoes the suffix — the Karsenty &
// Beaudouin-Lafon scheme cited in §VII-C. O(1) per in-order insert and
// query; O(suffix) per late insert, and O(suffix) for a whole merged
// batch notified once at its lowest position. Requires a spec
// implementing spec.Undoable.
type UndoEngine struct {
	adt   spec.UQADT
	und   spec.Undoable
	log   *Log
	state spec.State
	undos []spec.Undo
}

// NewUndoEngine returns an undo-redo engine; Bind panics if the data
// type does not support undo.
func NewUndoEngine() *UndoEngine { return &UndoEngine{} }

// Name implements Engine.
func (*UndoEngine) Name() string { return "undo" }

// Bind implements Engine.
func (e *UndoEngine) Bind(adt spec.UQADT, log *Log) {
	und, ok := adt.(spec.Undoable)
	if !ok {
		panic(fmt.Sprintf("core: %s does not implement spec.Undoable", adt.Name()))
	}
	e.adt, e.und, e.log = adt, und, log
	e.state = log.BaseState()
	e.undos = e.undos[:0]
	for _, en := range log.Entries() {
		var u spec.Undo
		e.state, u = e.und.ApplyUndo(e.state, en.U)
		e.undos = append(e.undos, u)
	}
}

// Inserted implements Engine.
func (e *UndoEngine) Inserted(at int) {
	entries := e.log.Entries()
	// Undo everything the engine applied past the unchanged prefix
	// entries[:at], then redo from at: the new entries and the displaced
	// ones alike.
	for len(e.undos) > at {
		e.state = e.undos[len(e.undos)-1](e.state)
		e.undos = e.undos[:len(e.undos)-1]
	}
	// Redo from the insertion point, including the new entry.
	for i := at; i < len(entries); i++ {
		var u spec.Undo
		e.state, u = e.und.ApplyUndo(e.state, entries[i].U)
		e.undos = append(e.undos, u)
	}
}

// State implements Engine.
func (e *UndoEngine) State() spec.State { return e.state }

// StateConcurrent implements Engine: the undo engine's state is
// maintained incrementally by Inserted, so reading it never mutates
// anything.
func (e *UndoEngine) StateConcurrent() (spec.State, bool) { return e.state, true }

var (
	_ Engine = (*ReplayEngine)(nil)
	_ Engine = (*CheckpointEngine)(nil)
	_ Engine = (*UndoEngine)(nil)
)
