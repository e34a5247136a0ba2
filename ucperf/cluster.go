package main

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"updatec"
	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// nKeys is the counter-map key space every workload draws from.
const nKeys = 1024

var (
	keyNames [nKeys]string
	keyIndex = make(map[string]int, nKeys)
)

func init() {
	for i := range keyNames {
		keyNames[i] = fmt.Sprintf("k%04d", i)
		keyIndex[keyNames[i]] = i
	}
}

// counterMap is the typed-handle surface the workloads drive. The
// public *updatec.CounterMap satisfies it; so do the benchmark's own
// handles over a bare replica port, which call the port exactly as the
// public handle does.
type counterMap interface {
	Add(k string, n int64)
	Value(k string) int64
	All() []string
}

// portHandle is the counter-map handle over any replica port: the
// wire client's, the daemon's, or a core.ShardedReplica.
type portHandle struct{ p updatec.Handle }

func (h *portHandle) Add(k string, n int64) { h.p.Update(spec.AddKey{K: k, N: n}) }
func (h *portHandle) Value(k string) int64 {
	return int64(h.p.Query(spec.ReadCtr{K: k}).(spec.CtrVal))
}
func (h *portHandle) All() []string { return h.p.Query(spec.ReadAllCtrs{}).(spec.Elems) }

// tracedHandle opens a generator span around each call of portHandle.
type tracedHandle struct {
	portHandle
	tr *tracer
}

func (h *tracedHandle) Add(k string, n int64) {
	i := h.tr.op(spUpdate)
	h.portHandle.Add(k, n)
	h.tr.opEnd(i)
}

func (h *tracedHandle) Value(k string) int64 {
	i := h.tr.op(spQuery)
	v := h.portHandle.Value(k)
	h.tr.opEnd(i)
	return v
}

func (h *tracedHandle) All() []string {
	i := h.tr.op(spScan)
	out := h.portHandle.All()
	h.tr.opEnd(i)
	return out
}

func handleFor(p updatec.Handle, tr *tracer) counterMap {
	if tr == nil {
		return &portHandle{p}
	}
	return &tracedHandle{portHandle{p}, tr}
}

// prober issues visibility probes at replica 0 and checks coverage at
// the others: a per-origin vector compare, no query and no replay.
type prober interface {
	Inc(k string)
	Switch(p int)
	Covered() bool
}

type publicProber struct {
	s *updatec.Session[*updatec.CounterMap]
}

func (p publicProber) Inc(k string)  { p.s.Handle().Inc(k) }
func (p publicProber) Switch(r int)  { p.s.Switch(r) }
func (p publicProber) Covered() bool { return p.s.Covered() }

type coreProber struct {
	s    *core.ShardedSession
	reps []*core.ShardedReplica
}

func (p coreProber) Inc(k string)  { p.s.Update(spec.AddKey{K: k, N: 1}) }
func (p coreProber) Switch(r int)  { p.s.Switch(p.reps[r]) }
func (p coreProber) Covered() bool { return p.s.Covered() }

// cluster is one in-process 3-replica cluster as a workload sees it.
type cluster struct {
	h         []counterMap
	probe     prober // live clusters only
	settle    func()
	converged func() bool
	close     func()
	// Simulated clusters only.
	partition func()
	heal      func() error
	// reps and sim are set on clusters the benchmark assembled from
	// core itself (traced runs), whose layer counters it reads.
	reps []*core.ShardedReplica
	sim  *transport.SimNetwork
}

// newPublicCluster builds the cluster through updatec.New: the live
// transport with default options, or the simulated one (WithSeed,
// WithFIFO) when seed is non-nil.
func newPublicCluster(seed *int64) (*cluster, error) {
	var opts []updatec.Option
	if seed != nil {
		opts = []updatec.Option{updatec.WithSeed(*seed), updatec.WithFIFO()}
	}
	cl, hs, err := updatec.New(3, updatec.CounterMapObject(), opts...)
	if err != nil {
		return nil, err
	}
	c := &cluster{settle: cl.Settle, converged: cl.Converged, close: cl.Close}
	for _, h := range hs {
		c.h = append(c.h, h)
	}
	if seed == nil {
		s, err := cl.Session(0)
		if err != nil {
			cl.Close()
			return nil, err
		}
		c.probe = publicProber{s}
		return c, nil
	}
	c.partition = func() {
		if err := cl.Partition([]int{0}, []int{1}, []int{2}); err != nil {
			panic(err) // ids are in range by construction
		}
	}
	c.heal = cl.Heal
	return c, nil
}

// newCoreCluster assembles the same construction New builds for these
// options — core.ShardedCluster with one shard, the replay engine and
// the spec as its own codec — over the decorated spec and transport
// when tr is non-nil. seed selects the simulated transport as in
// newPublicCluster.
func newCoreCluster(seed *int64, tr *tracer) *cluster {
	var adt interface {
		spec.UQADT
		spec.Codec
	} = spec.CounterMap()
	if tr != nil {
		adt = tracedSpec{tr: tr}
	}
	var base transport.ResizableNetwork
	var live *transport.LiveNetwork
	var sim *transport.SimNetwork
	if seed == nil {
		live = transport.NewLiveSharded(3, 1)
		base = live
	} else {
		sim = transport.NewSim(transport.SimOptions{N: 3, Seed: *seed, FIFO: true})
		base = sim
	}
	var net transport.Network = base
	if tr != nil {
		net = &tracedNet{ResizableNetwork: base, tr: tr}
	}
	reps := core.ShardedCluster(3, 1, adt, net, core.ClusterOptions{Codec: adt})
	c := &cluster{reps: reps, sim: sim, close: func() {}}
	for _, r := range reps {
		c.h = append(c.h, handleFor(r, tr))
	}
	c.converged = func() bool {
		k := reps[0].StateKey()
		return reps[1].StateKey() == k && reps[2].StateKey() == k
	}
	if live != nil {
		c.settle = live.Drain
		c.close = live.Close
		c.probe = coreProber{s: core.NewShardedSession(reps[0]), reps: reps}
		return c
	}
	c.settle = sim.Quiesce
	c.partition = func() { sim.Partition([]int{0}, []int{1}, []int{2}) }
	c.heal = func() error {
		// Cluster.Heal: lift the cut, then one gather/scatter digest
		// round with replica 0 as the hub.
		sim.Heal()
		for pass := 0; pass < 2; pass++ {
			for q := 1; q < len(reps); q++ {
				dst, src := 0, q
				if pass == 1 {
					dst, src = q, 0
				}
				if _, err := reps[dst].SyncFrom(reps[src]); err != nil {
					return fmt.Errorf("anti-entropy pull %d<-%d: %w", dst, src, err)
				}
			}
		}
		return nil
	}
	return c
}

// layerStats sums the replica counters of a core-assembled cluster.
func (c *cluster) layerStats() (st core.Stats, hits, misses uint64) {
	for _, r := range c.reps {
		s := r.Stats()
		st.LogLen += s.LogLen
		st.TotalOps += s.TotalOps
		st.LateInserts += s.LateInserts
		st.DupDropped += s.DupDropped
		st.SyncApplied += s.SyncApplied
		h, m := r.QueryCacheStats()
		hits += h
		misses += m
	}
	return st, hits, misses
}

// within runs f and reports whether it returned within d. On a timeout
// f keeps running; the caller abandons what f waits on, counts the
// round's unverified updates as failed and ends the run.
func within(d time.Duration, f func()) bool {
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-done:
		return true
	case <-t.C:
		return false
	}
}

// missing compares whole-state reads against the generator's per-key
// tally. It returns, for the worst replica, the number of update
// effects missing or extra (every update adds 1, so this counts
// updates), and at least 1 when the replicas' states differ.
func missing(alls [][]string, want []int64) int {
	worst := 0
	for _, all := range alls {
		got := make([]int64, nKeys)
		bad := 0
		for _, e := range all {
			k, v, ok := strings.Cut(e, "=")
			n, err := strconv.ParseInt(v, 10, 64)
			i, known := keyIndex[k]
			if !ok || err != nil || !known {
				bad++
				continue
			}
			got[i] = n
		}
		for i := range got {
			d := got[i] - want[i]
			if d < 0 {
				d = -d
			}
			bad += int(d)
		}
		worst = max(worst, bad)
	}
	if worst == 0 {
		for _, all := range alls[1:] {
			if strings.Join(all, ",") != strings.Join(alls[0], ",") {
				return 1
			}
		}
	}
	return worst
}
