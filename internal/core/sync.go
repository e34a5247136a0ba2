package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"updatec/internal/clock"
)

// Anti-entropy log repair. The paper's convergence argument (§VI)
// assumes every update is eventually delivered to every correct
// process; reliable broadcast provides that on a connected network,
// but a long partition or an injected link fault leaves a replica
// missing an arbitrary suffix of its peers' logs, and a recovered
// crash missing everything sent while it was down. Rather than wait
// for transport-level redelivery — which replays every queued frame,
// duplicates included — a replica can *pull* exactly what it lacks
// from any peer:
//
//	digest  := r.Digest()            — what r holds, summarized
//	payload := donor.SyncReply(digest)
//	applied := r.ApplySync(payload)  — land the missing suffix
//
// or, end to end, r.SyncFrom(donor). The payload reuses the update
// wire format (timestamp + spec codec bytes), and entries land through
// the same dedup'd insert path as resharding's Absorb: no broadcast,
// no stability peer-observation (the FIFO argument does not hold for
// sync-transferred entries), duplicates dropped and counted. Pulls are
// one-directional; a symmetric exchange is two pulls. Because logs
// only grow and inserts are idempotent, one all-pairs round of pulls
// after a heal makes every replica's update set the union of what the
// group held — the transport's queued originals then arrive as counted
// duplicates instead of divergence.
//
// When the donor has compacted past the requester's horizon the
// missing prefix no longer exists as entries; SyncReply reports
// ErrCompacted and SyncFrom falls back to full state transfer,
// merging the donor's Snapshot with the requester's surviving live
// suffix (MergeSnapshot). Stability makes the fallback sound: the
// donor's base folds every update at or below its horizon, and the
// requester's own base — compacted at a strictly lower horizon, or it
// would not have hit ErrCompacted — is a prefix of that.

// ErrCompacted reports that a sync donor has garbage-collected part of
// the suffix the requester is missing; the requester must fall back to
// snapshot transfer (Replica.MergeSnapshot).
var ErrCompacted = errors.New("core: donor compacted past requester's digest base; use snapshot transfer")

// OriginDigest summarizes one origin process's live entries in a log:
// how many, the highest clock among them, and an order-independent
// hash of their clocks. Count and Hash let a donor decide whether the
// requester's holdings are exactly the donor's own prefix (send only
// the suffix) or something weirder — gaps from dropped links,
// cross-epoch strays — in which case the donor sends everything it has
// for that origin and the requester's dedup sorts it out.
type OriginDigest struct {
	Count uint64
	Max   uint64
	Hash  uint64
}

// Digest summarizes what a replica's log holds, per origin, for an
// anti-entropy exchange.
type Digest struct {
	// Ver is the log's version (mutation counter) at digest time. It is
	// replica-local — two replicas' versions are not comparable — and
	// serves only to detect local movement between a caller's own
	// rounds.
	Ver uint64
	// Base is the clock of the compaction horizon: every update with
	// clock ≤ Base is folded into this replica's base state, so the
	// donor need not (and cannot be asked to) resend it.
	Base uint64
	// Origins[j] summarizes the live entries originated by process j.
	Origins []OriginDigest
}

// mix64 is the splitmix64 finalizer; the per-origin set hash is the
// wrapping sum of mix64 over entry clocks, which is order-independent
// (insertion interleavings don't matter) and handles the multiplicity
// a resharded log can legitimately hold (equal (clock, proc) under
// different keys sums twice on both sides).
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Digest summarizes the replica's log for an anti-entropy pull.
func (r *Replica) Digest() Digest {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d := Digest{Ver: r.log.Version(), Origins: make([]OriginDigest, r.n)}
	_, baseTS := r.log.Base()
	d.Base = baseTS.Clock
	for _, e := range r.log.Entries() {
		if e.TS.Proc < 0 || e.TS.Proc >= r.n {
			continue
		}
		o := &d.Origins[e.TS.Proc]
		o.Count++
		if e.TS.Clock > o.Max {
			o.Max = e.TS.Clock
		}
		o.Hash += mix64(e.TS.Clock)
	}
	return d
}

// originOf returns the digest's summary for origin j (zero when the
// digest is narrower than the donor's process count).
func originOf(d Digest, j int) OriginDigest {
	if j < len(d.Origins) {
		return d.Origins[j]
	}
	return OriginDigest{}
}

// SyncReply encodes the update suffix a peer with digest d is missing
// from this replica's log. The reply is self-delimiting —
//
//	uvarint entryCount
//	entryCount × ( uvarint frameLen, timestamp, op )
//
// — with each frame in the broadcast wire format, so ApplySync decodes
// with the same codec as live traffic. A nil, nil reply means the peer
// is missing nothing this donor can tell. Per origin the donor sends
// the suffix above the peer's Max when the peer's holdings match the
// donor's own prefix exactly (count and hash agree), and everything
// above d.Base otherwise — a superset of the missing set is always
// correct, since the receiver deduplicates. ErrCompacted is returned
// when this donor's own compaction horizon is above d.Base: part of
// what the peer is missing exists here only folded into state.
func (r *Replica) SyncReply(d Digest) ([]byte, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, baseTS := r.log.Base()
	if baseTS.Clock > d.Base {
		return nil, ErrCompacted
	}
	entries := r.log.Entries()
	// Pass 1: the donor's view of each origin above d.Base, split at
	// the peer's per-origin Max.
	type donorStat struct {
		prefixCount uint64
		prefixHash  uint64
		suffixCount uint64
	}
	stats := make([]donorStat, r.n)
	for i := range entries {
		ts := entries[i].TS
		if ts.Clock <= d.Base || ts.Proc < 0 || ts.Proc >= r.n {
			continue
		}
		if ts.Clock <= originOf(d, ts.Proc).Max {
			stats[ts.Proc].prefixCount++
			stats[ts.Proc].prefixHash += mix64(ts.Clock)
		} else {
			stats[ts.Proc].suffixCount++
		}
	}
	const (
		sendNothing = iota
		sendSuffix
		sendAll
	)
	mode := make([]byte, r.n)
	total := uint64(0)
	for j := 0; j < r.n; j++ {
		od := originOf(d, j)
		if stats[j].prefixCount == od.Count && stats[j].prefixHash == od.Hash {
			if stats[j].suffixCount > 0 {
				mode[j] = sendSuffix
				total += stats[j].suffixCount
			}
		} else {
			mode[j] = sendAll
			total += stats[j].prefixCount + stats[j].suffixCount
		}
	}
	if total == 0 {
		return nil, nil
	}
	// Pass 2: encode the selected entries. This is the repair path, not
	// the broadcast hot path, so the buffer is local (r.enc needs the
	// exclusive lock; holding only the read half keeps concurrent
	// queries flowing on the donor).
	var lenb [binary.MaxVarintLen64]byte
	out := make([]byte, 0, 16+total*16)
	n := binary.PutUvarint(lenb[:], total)
	out = append(out, lenb[:n]...)
	scratch := make([]byte, 0, 64)
	for i := range entries {
		ts := entries[i].TS
		if ts.Clock <= d.Base || ts.Proc < 0 || ts.Proc >= r.n {
			continue
		}
		switch mode[ts.Proc] {
		case sendNothing:
			continue
		case sendSuffix:
			if ts.Clock <= originOf(d, ts.Proc).Max {
				continue
			}
		}
		scratch = ts.Encode(scratch[:0])
		if r.acodec != nil {
			var err error
			scratch, err = r.acodec.AppendUpdate(scratch, entries[i].U)
			if err != nil {
				return nil, fmt.Errorf("core: encoding sync entry %s: %w", ts, err)
			}
		} else {
			op, err := r.codec.EncodeUpdate(entries[i].U)
			if err != nil {
				return nil, fmt.Errorf("core: encoding sync entry %s: %w", ts, err)
			}
			scratch = append(scratch, op...)
		}
		n = binary.PutUvarint(lenb[:], uint64(len(scratch)))
		out = append(out, lenb[:n]...)
		out = append(out, scratch...)
	}
	return out, nil
}

// ApplySync lands a SyncReply payload through the same bookkeeping as
// Absorb — no broadcast, no stability peer-observation, duplicates
// dropped and counted — but as one batch: the whole payload decodes
// before the lock is taken, and the decoded entries land in a single
// log merge with a single engine notification. A malformed payload
// therefore lands nothing. Returns how many entries were actually new.
// Frames at or below this replica's own compaction horizon are skipped
// (they are already folded into the base; stability guarantees they
// were delivered before compaction).
func (r *Replica) ApplySync(payload []byte) (int, error) {
	batch, err := r.decodeSyncReply(payload)
	if err != nil || len(batch) == 0 {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	kept := batch[:0]
	for _, e := range batch {
		if !r.log.Covers(e.TS) {
			kept = append(kept, e)
		}
	}
	applied := r.landBatchLocked(kept)
	r.syncApplied += uint64(applied)
	return applied, nil
}

// decodeSyncReply parses a SyncReply payload into entries. It touches
// no replica state beyond the (immutable) codec, so it runs unlocked.
func (r *Replica) decodeSyncReply(payload []byte) ([]Entry, error) {
	if len(payload) == 0 {
		return nil, nil
	}
	count, off := binary.Uvarint(payload)
	if off <= 0 {
		return nil, fmt.Errorf("core: malformed sync reply count")
	}
	// Every frame takes at least one byte, so the payload length bounds
	// a count read off the wire.
	batch := make([]Entry, 0, min(count, uint64(len(payload))))
	for i := uint64(0); i < count; i++ {
		flen, m := binary.Uvarint(payload[off:])
		if m <= 0 || uint64(len(payload)-off-m) < flen {
			return nil, fmt.Errorf("core: truncated sync reply frame %d", i)
		}
		off += m
		frame := payload[off : off+int(flen)]
		off += int(flen)
		ts, tn, err := clock.DecodeTimestamp(frame)
		if err != nil {
			return nil, fmt.Errorf("core: malformed sync frame %d timestamp: %w", i, err)
		}
		u, err := r.codec.DecodeUpdate(frame[tn:])
		if err != nil {
			return nil, fmt.Errorf("core: decoding sync frame %d: %w", i, err)
		}
		batch = append(batch, Entry{TS: ts, U: u})
	}
	return batch, nil
}

// MergeSnapshot merges a donor's Snapshot into a replica that already
// holds state — the ErrCompacted fallback of SyncFrom, and the general
// recovery move when a donor has GC'd past what a rejoining replica
// missed. The donor's base replaces this replica's own (stability makes
// it a superset: both bases fold downward-closed sets of delivered
// updates, and the donor's horizon is strictly higher or SyncReply
// would not have refused); this replica's live entries above the
// donor's horizon are re-inserted, then the donor's live entries are
// merged in, deduplicated. Returns how many of the donor's entries
// were new here.
func (r *Replica) MergeSnapshot(snap []byte) (int, error) {
	sd, err := r.parseSnapshot(snap)
	if err != nil {
		return 0, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.log
	nl := NewLog(r.adt)
	nl.tieKey = old.tieKey
	// Keep whichever base folded further. A base's folded entries exist
	// nowhere else, so adopting the lower-horizon one would lose the
	// difference; the higher base is a superset of the lower (both fold
	// downward-closed sets of delivered updates — stability). On the
	// ErrCompacted path the donor's is higher by construction, but
	// MergeSnapshot is also a general recovery entry point.
	obase, obaseTS := old.Base()
	if sd.base != nil && (obase == nil || obaseTS.Clock < sd.baseTS.Clock) {
		nl.RestoreBase(sd.base, sd.baseTS, sd.baseLen)
		// A seeded (post-resize merged-domain) receiver keeps the
		// relaxed below-horizon guard: cross-epoch stragglers that
		// collide with the merged horizon remain legal arrivals. The
		// merged flag makes later below-horizon redeliveries (healed
		// links draining their queues) duplicate drops, not panics.
		nl.seeded = old.seeded
		nl.merged = true
	} else if obase != nil {
		nl.RestoreBase(obase, obaseTS, old.baseLen)
		nl.seeded = old.seeded
		nl.merged = old.merged
	}
	// This replica's surviving suffix is already sorted and free of
	// duplicates, so it carries over as a filtered in-order copy; the
	// donor's entries then land in one merge.
	nl.buf = make([]Entry, 0, old.Len()+len(sd.entries))
	for _, e := range old.Entries() {
		if !nl.Covers(e.TS) { // else folded into the donor's base
			nl.buf = append(nl.buf, e)
		}
	}
	nl.version += uint64(len(nl.buf))
	batch := sd.entries[:0]
	for _, e := range sd.entries {
		if !nl.Covers(e.TS) {
			batch = append(batch, e)
		}
	}
	applied, _, _ := nl.MergeDedup(batch)
	r.dupDrops += uint64(len(batch) - applied)
	for _, e := range batch[:applied] {
		r.originMax.Observe(e.TS)
	}
	// The log version must stay monotone across the swap: the state-key
	// memo, the query-output cache and the sharded merged-state cache
	// all treat the version as a fingerprint of everything ever
	// observed, so the new log resumes counting above the old one.
	nl.version += old.version
	r.log = nl
	r.clk.Observe(sd.clock)
	if r.stab != nil {
		r.stab.ObserveSelf(r.clk.Now())
	}
	r.engine.Bind(r.adt, r.log)
	r.syncApplied += uint64(applied)
	return applied, nil
}

// SyncFrom runs one complete anti-entropy pull from donor: digest,
// reply, apply — falling back to snapshot transfer when the donor has
// compacted past this replica's horizon. Returns how many entries (or
// snapshot-carried updates) were new here. Both replicas stay fully
// available throughout: the donor side holds only its read lock.
func (r *Replica) SyncFrom(donor *Replica) (int, error) {
	if donor == r {
		return 0, nil
	}
	payload, err := donor.SyncReply(r.Digest())
	if errors.Is(err, ErrCompacted) {
		snap, serr := donor.Snapshot()
		if serr != nil {
			return 0, fmt.Errorf("core: sync snapshot fallback: %w", serr)
		}
		return r.MergeSnapshot(snap)
	}
	if err != nil {
		return 0, err
	}
	return r.ApplySync(payload)
}

// SyncFrom pulls every shard's missing suffix from the corresponding
// shard of peer. Both replicas must be at the same shard count —
// cluster-level resizes keep counts uniform (crashed replicas are
// resized too; a crash suppresses delivery in the transport, not
// routing structure), so a mismatch means the caller is syncing across
// clusters or mid-resize, and the pull is refused rather than guessed
// at. Returns the total number of newly landed entries.
func (r *ShardedReplica) SyncFrom(peer *ShardedReplica) (int, error) {
	if peer == r {
		return 0, nil
	}
	r.routeMu.RLock()
	defer r.routeMu.RUnlock()
	mine, theirs := r.gen.Load(), peer.gen.Load()
	if len(mine.shards) != len(theirs.shards) {
		return 0, fmt.Errorf("core: sync requires equal shard counts (have %d, peer has %d); resize to a common count first",
			len(mine.shards), len(theirs.shards))
	}
	applied := 0
	for s := range mine.shards {
		n, err := mine.shards[s].SyncFrom(theirs.shards[s])
		applied += n
		if err != nil {
			return applied, fmt.Errorf("core: shard %d: %w", s, err)
		}
	}
	return applied, nil
}
