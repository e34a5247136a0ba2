package core

import (
	"errors"
	"fmt"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// wireExchange runs one full byte-level anti-entropy pull: requester
// sends its digest, donor answers, requester applies. It returns
// whether the donor had anything to send.
func wireExchange(t *testing.T, requester, donor *WireSync) bool {
	t.Helper()
	digest, err := requester.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil {
		t.Fatal(err)
	}
	if reply == nil {
		return false
	}
	if err := requester.ApplySync(reply); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestWireSyncRepairsPartitionedSharded is the byte-level version of
// the in-process partition-heal scenario: a 2-process, 3-shard cluster
// partitions, one side issues updates spread across shards, and a
// single DigestPayload/SyncReply/ApplySync exchange — the exact bytes
// the TCP transport moves on reconnect — lands every missing entry.
func TestWireSyncRepairsPartitionedSharded(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 11})
	reps := ShardedCluster(2, 3, spec.CounterMap(), net, ClusterOptions{})
	net.Partition([]int{0}, []int{1})
	for i := 0; i < 400; i++ {
		reps[0].Update(spec.AddKey{K: fmt.Sprintf("k%d", i%17), N: 1})
	}
	net.Quiesce() // nothing crosses the cut
	if reps[1].StateKey() == reps[0].StateKey() {
		t.Fatal("partitioned replica cannot already match")
	}
	w0, w1 := NewWireSync(reps[0]), NewWireSync(reps[1])
	if !wireExchange(t, w1, w0) {
		t.Fatal("donor with 400 unseen updates sent an empty reply")
	}
	if reps[1].StateKey() != reps[0].StateKey() {
		t.Fatal("wire sync exchange did not converge the shards")
	}
	// Converged replicas owe each other nothing: the reply must be the
	// nil fast path, not an all-modes-zero payload.
	if wireExchange(t, w0, w1) {
		t.Fatal("converged donor produced a non-nil reply")
	}
	net.Heal()
	net.Quiesce() // the queued backlog drains as counted duplicates
	if reps[1].StateKey() != reps[0].StateKey() {
		t.Fatal("backlog redelivery after wire sync broke convergence")
	}
}

// TestWireSyncShardCountMismatch: both directions of the exchange must
// refuse a peer with a different shard count — wire clusters do not
// resize live, so a mismatch is misconfiguration.
func TestWireSyncShardCountMismatch(t *testing.T) {
	mk := func(shards int) *WireSync {
		net := transport.NewSim(transport.SimOptions{N: 1, Seed: 1})
		return NewWireSync(NewShardedReplica(ShardedConfig{
			ID: 0, N: 1, Shards: shards, ADT: spec.CounterMap(), Net: net,
		}))
	}
	two, four := mk(2), mk(4)
	digest4, err := four.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := two.SyncReply(digest4); err == nil {
		t.Fatal("SyncReply accepted a digest with the wrong shard count")
	}
	// A valid reply for 4 shards must be refused by a 2-shard applier.
	four.r.Update(spec.AddKey{K: "x", N: 1})
	emptyDigest, err := mk(4).DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := four.SyncReply(emptyDigest)
	if err != nil || reply == nil {
		t.Fatalf("donor reply: %v (nil=%v)", err, reply == nil)
	}
	if err := two.ApplySync(reply); err == nil {
		t.Fatal("ApplySync accepted a reply with the wrong shard count")
	}
}

// TestWireSyncMalformedPayloads: truncated or garbage bytes in either
// direction must error out cleanly, never panic or corrupt state.
func TestWireSyncMalformedPayloads(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 1, Seed: 2})
	w := NewWireSync(NewShardedReplica(ShardedConfig{
		ID: 0, N: 1, Shards: 2, ADT: spec.CounterMap(), Net: net,
	}))
	w.r.Update(spec.AddKey{K: "a", N: 3})
	key := w.r.StateKey()

	digest, err := w.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(digest); cut++ {
		if _, err := w.SyncReply(digest[:cut]); err == nil {
			t.Fatalf("SyncReply accepted a digest truncated to %d bytes", cut)
		}
	}
	for _, junk := range [][]byte{nil, {0xff}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}} {
		if _, err := w.SyncReply(junk); err == nil {
			t.Fatalf("SyncReply accepted junk digest %v", junk)
		}
		if err := w.ApplySync(junk); err == nil {
			t.Fatalf("ApplySync accepted junk reply %v", junk)
		}
	}
	// A structurally valid header with a truncated body.
	if err := w.ApplySync([]byte{2, wireSyncEntries, 200}); err == nil {
		t.Fatal("ApplySync accepted a reply with a truncated shard body")
	}
	if w.r.StateKey() != key {
		t.Fatal("malformed payloads changed replica state")
	}
}

// TestApplySyncMalformedLandsNothing: ApplySync decodes the whole reply
// before landing any of it, so a reply whose later frames are
// malformed or truncated errors out with the replica untouched — not
// with its well-formed leading frames applied.
func TestApplySyncMalformedLandsNothing(t *testing.T) {
	mk := func(id int) *Replica {
		net := transport.NewSim(transport.SimOptions{N: 2, Seed: 9})
		return NewReplica(Config{ID: id, N: 2, ADT: spec.Set(), Net: net})
	}
	donor, r := mk(1), mk(0)
	for c := uint64(1); c <= 3; c++ {
		donor.Absorb(ts(c, 1), spec.Ins{V: fmt.Sprint(c)})
	}
	payload, err := donor.SyncReply(Digest{})
	if err != nil {
		t.Fatal(err)
	}
	twoFrames, err := donor.SyncReply(Digest{Origins: []OriginDigest{{}, {Count: 1, Max: 1, Hash: mix64(1)}}})
	if err != nil {
		t.Fatal(err)
	}
	// Frames 1–2 well formed, frame 3 an empty body (no timestamp).
	thirdBad := append([]byte{3}, twoFrames[1:]...)
	thirdBad = append(thirdBad, 0)
	bad := [][]byte{thirdBad}
	for cut := 1; cut < len(payload); cut++ {
		bad = append(bad, payload[:cut])
	}
	before, key := r.Stats(), r.StateKey()
	for _, p := range bad {
		if n, err := r.ApplySync(p); err == nil || n != 0 {
			t.Fatalf("ApplySync(%v) = %d, %v; want 0 and an error", p, n, err)
		}
		if r.Stats() != before || r.StateKey() != key {
			t.Fatalf("malformed reply %v landed entries: %+v", p, r.Stats())
		}
	}
	if n, err := r.ApplySync(payload); err != nil || n != 3 {
		t.Fatalf("well-formed reply: %d, %v", n, err)
	}
}

// TestWireSyncSnapshotFallback: when the donor has compacted past the
// requester's horizon, the byte-level reply must carry the snapshot
// mode and MergeSnapshot must land the donor's full state — the
// restart-after-long-downtime repair path over the wire.
func TestWireSyncSnapshotFallback(t *testing.T) {
	net := transport.NewSim(transport.SimOptions{N: 2, Seed: 5, FIFO: true})
	reps := ShardedCluster(2, 1, spec.Set(), net, ClusterOptions{GC: true, GCEvery: 8})
	for i := 0; i < 120; i++ {
		reps[0].Update(spec.Ins{V: fmt.Sprint(i)})
		reps[1].Update(spec.Ins{V: fmt.Sprint(i + 1000)})
		net.Quiesce()
	}
	reps[0].ForceCompact()
	want := reps[0].StateKey()
	if _, err := reps[0].Shard(0).SyncReply(Digest{}); !errors.Is(err, ErrCompacted) {
		t.Fatalf("donor must be compacted past an empty requester, got %v", err)
	}

	// A replica restarting empty after long downtime.
	restored := NewShardedReplica(ShardedConfig{
		ID: 1, N: 2, Shards: 1, ADT: spec.Set(),
		Net: transport.NewSim(transport.SimOptions{N: 2, Seed: 1}),
	})
	donor, requester := NewWireSync(reps[0]), NewWireSync(restored)
	digest, err := requester.DigestPayload()
	if err != nil {
		t.Fatal(err)
	}
	reply, err := donor.SyncReply(digest)
	if err != nil {
		t.Fatal(err)
	}
	if len(reply) < 2 || reply[1] != wireSyncSnapshot {
		t.Fatalf("compacted donor must answer with the snapshot mode, got %v", reply[:min(len(reply), 2)])
	}
	if err := requester.ApplySync(reply); err != nil {
		t.Fatal(err)
	}
	if restored.StateKey() != want {
		t.Fatal("snapshot fallback over the wire did not reach the donor's state")
	}
}
