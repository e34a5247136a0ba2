package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"syscall"
	"time"

	"updatec"
	"updatec/internal/core"
)

const (
	probeEvery     = 1024   // live-write ops between visibility probes
	probeCheck     = 8      // ops between coverage checks of a pending probe
	wireRate       = 20_000 // aggregate open-loop rate, ops/s
	wireStatsEvery = 1000   // wire ops between queue-depth samples

	settleDeadline = 30 * time.Second
	readyDeadline  = 10 * time.Second
	flushDeadline  = 10 * time.Second
)

// round is what one round measured. Latency samples are in ns.
type round struct {
	setup, wall, settle time.Duration
	ops, failed         int
	heapMB              float64
	upd, qry, scan, vis []int64
	late                []int64
	// samples counts the update, query and scan latencies each
	// percentile of the round rests on.
	samples [3]int
	// e2e holds the round's end-to-end figures once reduce has run.
	e2e    map[string]float64
	rt     [2]rtSnap // around the measured phase
	layers map[string]float64
	// st0, hit0 and miss0 snapshot a core-assembled cluster's counters
	// at the start of the measured phase.
	st0         core.Stats
	hit0, miss0 uint64
	// fatal is set when a wait missed its deadline: the run stops
	// after this round.
	fatal bool
}

// reduce computes the round's end-to-end figures and drops its
// latency samples, so rounds kept for the summary do not grow the heap
// later rounds measure.
func (r *round) reduce() {
	us := func(xs []int64, q float64) float64 { return pct(xs, q) / 1e3 }
	r.e2e = map[string]float64{
		"ops_per_s":     ratio(float64(r.ops), r.wall.Seconds()),
		"update_p50_us": us(r.upd, 0.5),
		"update_p99_us": us(r.upd, 0.99),
		"query_p50_us":  us(r.qry, 0.5),
		"query_p99_us":  us(r.qry, 0.99),
		"scan_p50_us":   us(r.scan, 0.5),
		"scan_p99_us":   us(r.scan, 0.99),
		"settle_ms":     float64(r.settle) / 1e6,
		"heap_mb":       r.heapMB,
		"setup_s":       r.setup.Seconds(),
	}
	r.samples = [3]int{len(r.upd), len(r.qry), len(r.scan)}
	r.upd, r.qry, r.scan, r.late = nil, nil, nil, nil
}

// runtimeLayers fills the runtime per-layer metrics of a round.
func (r *round) runtimeLayers(m map[string]float64) {
	ops := float64(r.ops)
	m["runtime.cpu_us_per_op"] = ratio(float64(r.rt[1].cpu-r.rt[0].cpu)/1e3, ops)
	m["runtime.gc_cycles"] = float64(r.rt[1].numGC - r.rt[0].numGC)
	m["runtime.gc_pause_ms"] = float64(r.rt[1].pauseTotal-r.rt[0].pauseTotal) / 1e6
	m["runtime.alloc_bytes_per_op"] = ratio(float64(r.rt[1].totalAlloc-r.rt[0].totalAlloc), ops)
}

func drawUniform(rng *rand.Rand, n int) []int {
	ks := make([]int, n)
	for i := range ks {
		ks[i] = rng.Intn(nKeys)
	}
	return ks
}

func newCluster(seed *int64, tr *tracer) (*cluster, error) {
	if tr == nil {
		return newPublicCluster(seed)
	}
	return newCoreCluster(seed, tr), nil
}

// begin snapshots the counters and starts the measured phase.
func (r *round) begin(c *cluster, tr *tracer) time.Time {
	r.rt[0] = snapRuntime()
	if tr != nil {
		r.st0, r.hit0, r.miss0 = c.layerStats()
		tr.reset()
	}
	return time.Now()
}

// finish settles a cluster under a deadline, verifies it and fills the
// common round fields. last is when the last operation returned.
func (r *round) finish(c *cluster, tr *tracer, start, last time.Time, want []int64) {
	settled := r.timedSettle(c, tr)
	var st core.Stats
	var hits, misses uint64
	if tr != nil {
		tr.stop()
		st, hits, misses = c.layerStats()
	}
	bad := r.ops
	var alls [][]string
	// A simulated cluster is single-goroutine: while a timed-out Settle
	// still runs it cannot be read, and all its updates count as failed.
	if settled || c.heal == nil {
		for _, h := range c.h {
			alls = append(alls, h.All())
		}
	}
	converged := settled && c.converged()
	// The reads above are the last system work; checking them against
	// the tally is the benchmark's own and stays out of the timing.
	done := time.Now()
	r.rt[1] = snapRuntime()
	if alls != nil {
		bad = missing(alls, want)
	}
	if !converged {
		bad = max(bad, 1)
	}
	r.failed += bad
	r.wall = done.Sub(start)
	r.settle = done.Sub(last)
	r.heapMB = liveHeapMB()
	if tr != nil {
		r.layers = map[string]float64{
			"core.late_insert_frac":     ratio(float64(st.LateInserts-r.st0.LateInserts), float64(st.TotalOps-r.st0.TotalOps)),
			"core.entries_landed":       float64(st.TotalOps - r.st0.TotalOps),
			"core.log_len":              float64(st.LogLen) / float64(len(c.reps)),
			"core.sync_applied":         float64(st.SyncApplied - r.st0.SyncApplied),
			"core.dup_dropped":          float64(st.DupDropped - r.st0.DupDropped),
			"core.query_cache_hit_frac": ratio(float64(hits-r.hit0), float64(hits-r.hit0+misses-r.miss0)),
			"core.cache_lookups":        float64(hits - r.hit0 + misses - r.miss0),
		}
		if c.sim != nil {
			// Every remote delivery on the simulator is one step.
			r.layers["transport.sim_steps"] = float64(len(durations(tr.recorded(), spDeliver, -1)))
		}
		tr.spanLayers(r.layers)
	}
	if !settled {
		r.fatal = true
		return
	}
	if !within(settleDeadline, c.close) {
		r.fatal = true
	}
}

func (r *round) timedSettle(c *cluster, tr *tracer) bool {
	var s int32 = -1
	if tr != nil {
		s = tr.begin(spSettle, -1)
	}
	ok := within(settleDeadline, c.settle)
	if tr != nil {
		tr.end(s)
	}
	return ok
}

// liveWrite: one closed-loop goroutine issues Add round-robin over the
// three replicas of a live cluster, with low-rate non-blocking
// visibility probes.
func liveWrite(rng *rand.Rand, tr *tracer, n int) (r round, err error) {
	keys := drawUniform(rng, n)
	t0 := time.Now()
	c, err := newCluster(nil, tr)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	want := make([]int64, nKeys)
	r.upd = make([]int64, 0, n)
	var (
		pending bool
		probeAt time.Time
		covered [3]bool
	)
	start := r.begin(c, tr)
	for i, k := range keys {
		h := c.h[i%3]
		a := time.Now()
		h.Add(keyNames[k], 1)
		r.upd = append(r.upd, int64(time.Since(a)))
		want[k]++
		switch {
		case pending && i%probeCheck == 0:
			all := true
			for p := 1; p < 3; p++ {
				if !covered[p] {
					c.probe.Switch(p)
					covered[p] = c.probe.Covered()
					all = all && covered[p]
				}
			}
			if all {
				r.vis = append(r.vis, int64(time.Since(probeAt)))
				pending = false
			}
			c.probe.Switch(0)
		case !pending && i%probeEvery == 0:
			probeAt = time.Now()
			c.probe.Inc(keyNames[k])
			want[k]++
			r.ops++
			pending, covered = true, [3]bool{true}
		}
	}
	r.ops += len(keys)
	r.finish(c, tr, start, time.Now(), want)
	return r, nil
}

// liveReadMix: one closed-loop goroutine runs 10% Add (uniform keys),
// 80% Value (zipf s=1.1) and 10% All, round-robin over the replicas.
// Every keyed read must satisfy 0 ≤ v ≤ adds issued so far to its key.
func liveReadMix(rng *rand.Rand, tr *tracer, n int) (r round, err error) {
	type op struct{ class, key int }
	zipf := rand.NewZipf(rng, 1.1, 1, nKeys-1)
	ops := make([]op, n)
	for i := range ops {
		switch x := rng.Intn(10); {
		case x == 0:
			ops[i] = op{0, rng.Intn(nKeys)}
		case x == 9:
			ops[i] = op{2, 0}
		default:
			ops[i] = op{1, int(zipf.Uint64())}
		}
	}
	t0 := time.Now()
	c, err := newCluster(nil, tr)
	if err != nil {
		return r, err
	}
	r.setup = time.Since(t0)
	want := make([]int64, nKeys)
	start := r.begin(c, tr)
	for i, o := range ops {
		h := c.h[i%3]
		k := keyNames[o.key]
		a := time.Now()
		switch o.class {
		case 0:
			h.Add(k, 1)
			r.upd = append(r.upd, int64(time.Since(a)))
			want[o.key]++
		case 1:
			v := h.Value(k)
			r.qry = append(r.qry, int64(time.Since(a)))
			if v < 0 || v > want[o.key] {
				r.failed++
			}
		default:
			h.All()
			r.scan = append(r.scan, int64(time.Since(a)))
		}
	}
	r.ops = len(ops)
	r.finish(c, tr, start, time.Now(), want)
	return r, nil
}

// heal: a simulated cluster split three ways takes n/3 updates on each
// side, then Heal + Settle. settle is measured from calling Heal.
func heal(rng *rand.Rand, tr *tracer, n int) (r round, err error) {
	keys := drawUniform(rng, n)
	seed := rng.Int63()
	t0 := time.Now()
	c, err := newCluster(&seed, tr)
	if err != nil {
		return r, err
	}
	c.partition()
	r.setup = time.Since(t0)
	want := make([]int64, nKeys)
	r.upd = make([]int64, 0, len(keys))
	start := r.begin(c, tr)
	for i, k := range keys {
		a := time.Now()
		c.h[i%3].Add(keyNames[k], 1)
		r.upd = append(r.upd, int64(time.Since(a)))
		want[k]++
	}
	r.ops = len(keys)
	healAt := time.Now()
	var hs int32 = -1
	if tr != nil {
		hs = tr.begin(spHeal, -1)
	}
	if err := c.heal(); err != nil {
		return r, fmt.Errorf("heal: %w", err)
	}
	if tr != nil {
		tr.end(hs)
	}
	r.finish(c, tr, start, healAt, want)
	return r, nil
}

// freeAddrs picks n free loopback addresses. The ports lie below the
// kernel's ephemeral range (32768 and up on Linux), so the cluster's own
// outbound connections cannot take one between this probe and the
// daemon's bind.
func freeAddrs(n int) ([]string, error) {
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		if tries == 1000 {
			return nil, errors.New("no free loopback port in 20000-31999")
		}
		addr := fmt.Sprintf("127.0.0.1:%d", 20000+rand.Intn(12000))
		ln, err := net.Listen("tcp", addr)
		if err != nil || slices.Contains(addrs, addr) {
			continue
		}
		ln.Close()
		addrs = append(addrs, addr)
	}
	return addrs, nil
}

// startDaemons starts the three wire daemons. A port another process
// binds between the probe and the daemon's bind fails only that
// attempt: the daemons started so far are closed and fresh ports drawn.
func startDaemons[H any](obj updatec.Object[H]) ([]*updatec.WireNode[H], error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var addrs []string
		if addrs, err = freeAddrs(3); err != nil {
			return nil, err
		}
		nodes := make([]*updatec.WireNode[H], 0, len(addrs))
		for id := range addrs {
			var nd *updatec.WireNode[H]
			if nd, err = updatec.ListenAndServe(obj, updatec.WireConfig{ID: id, Peers: addrs}); err != nil {
				break
			}
			nodes = append(nodes, nd)
		}
		if err == nil {
			return nodes, nil
		}
		for _, nd := range nodes {
			nd.Close()
		}
		if !errors.Is(err, syscall.EADDRINUSE) {
			return nil, err
		}
	}
	return nil, err
}

// wireStats sums the counters the wire per-layer metrics are built from
// over every node and peer link.
type wireStats struct {
	frames, bytes, reconnects, droppedLink, digests, syncs uint64
	depthMax                                               int
}

func snapWire[H any](nodes []*updatec.WireNode[H]) (w wireStats) {
	for _, n := range nodes {
		s := n.Stats()
		w.reconnects += s.Reconnects
		w.droppedLink += s.DroppedLink
		w.digests += s.DigestsSent
		w.syncs += s.SyncsApplied
		for _, p := range s.Peers {
			w.frames += p.SentFrames
			w.bytes += p.SentBytes
			w.depthMax = max(w.depthMax, p.QueueDepth)
		}
	}
	return w
}

// wire serves the counter map itself untraced, and traced the same spec
// and codec behind the decorator, registered once under its own name.
func wire(rng *rand.Rand, tr *tracer, n int) (round, error) {
	if tr == nil {
		return wireRound(rng, updatec.CounterMapObject(), nil, n)
	}
	if !tr.wireSet {
		obj, err := updatec.Define(fmt.Sprintf("ucperf.countermap.traced.%p", tr), tracedSpec{tr: tr}, nil,
			func(p updatec.Handle) *portHandle { return &portHandle{p} })
		if err != nil {
			return round{}, err
		}
		tr.wire, tr.wireSet = obj, true
	}
	return wireRound(rng, tr.wire, tr, n)
}

// wireRound: three ListenAndServe daemons on loopback and two Dial
// clients (to daemons 0 and 1); one open-loop generator alternates
// between the clients at wireRate. Update latency is measured from each
// operation's due time; late records how far behind schedule the
// generator ran.
func wireRound[H counterMap](rng *rand.Rand, obj updatec.Object[H], tr *tracer, n int) (r round, err error) {
	keys := drawUniform(rng, n)
	t0 := time.Now()
	nodes, err := startDaemons(obj)
	if err != nil {
		return r, err
	}
	var clients []*updatec.Client[H]
	defer func() {
		for _, c := range clients {
			c.Close()
		}
		for _, nd := range nodes {
			nd.Close()
		}
	}()
	// Readiness: every peer link of every daemon reports Connected.
	// Updates issued before that could be lost to the pre-mesh window,
	// which this benchmark does not paper over; the wait counts in setup.
	ready := false
	for deadline := time.Now().Add(readyDeadline); !ready && time.Now().Before(deadline); {
		ready = true
		for _, nd := range nodes {
			for _, p := range nd.Stats().Peers {
				ready = ready && p.Connected
			}
		}
		if !ready {
			time.Sleep(time.Millisecond)
		}
	}
	if !ready {
		r.setup = time.Since(t0)
		r.ops, r.failed, r.fatal = n, n, true
		return r, nil
	}
	for _, nd := range nodes[:2] {
		c, err := updatec.Dial(obj, nd.Addr())
		if err != nil {
			return r, err
		}
		clients = append(clients, c)
	}
	hs := []H{clients[0].Handle(), clients[1].Handle()}
	r.setup = time.Since(t0)

	want := make([]int64, nKeys)
	r.upd = make([]int64, 0, n)
	r.late = make([]int64, 0, n)
	ws0 := snapWire(nodes)
	depthMax := 0
	r.rt[0] = snapRuntime()
	if tr != nil {
		tr.reset()
	}
	start := time.Now()
	gap := time.Second / wireRate
	for i, k := range keys {
		due := start.Add(time.Duration(i) * gap)
		for {
			wait := time.Until(due)
			if wait <= 0 {
				break
			}
			// Spin through short waits: a sleep lasts at least the
			// timer slack (about 1 ms here), twenty times the gap.
			if wait > 2*time.Millisecond {
				time.Sleep(wait - time.Millisecond)
			}
		}
		a := time.Now()
		var s int32 = -1
		if tr != nil {
			s = tr.op(spClientSend)
		}
		hs[i%2].Add(keyNames[k], 1)
		if tr != nil {
			tr.opEnd(s)
		}
		b := time.Now()
		r.late = append(r.late, int64(a.Sub(due)))
		r.upd = append(r.upd, int64(b.Sub(due)))
		want[k]++
		if i%wireStatsEvery == 0 {
			depthMax = max(depthMax, snapWire(nodes).depthMax)
		}
	}
	r.ops = n
	last := time.Now()

	// Flush barrier per client, then poll every daemon until the state
	// keys agree and the totals verify, or the deadline passes.
	var flushErr error
	flushed := within(flushDeadline, func() {
		for _, c := range clients {
			var s int32 = -1
			if tr != nil {
				s = tr.begin(spClientFlush, -1)
			}
			if err := c.Flush(); err != nil && flushErr == nil {
				flushErr = err
			}
			if tr != nil {
				tr.end(s)
			}
		}
	})
	if flushed && flushErr != nil {
		return r, fmt.Errorf("client flush: %w", flushErr)
	}
	var ss int32 = -1
	if tr != nil {
		ss = tr.begin(spSettle, -1)
	}
	bad := n
	var done time.Time
	for deadline := time.Now().Add(settleDeadline); flushed; {
		k := nodes[0].StateKey()
		if nodes[1].StateKey() == k && nodes[2].StateKey() == k {
			alls := make([][]string, len(nodes))
			for i, nd := range nodes {
				alls[i] = nd.Handle().All()
			}
			done = time.Now()
			if bad = missing(alls, want); bad == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if tr != nil {
		tr.end(ss)
		tr.stop()
	}
	if bad > 0 {
		done = time.Now()
	}
	r.rt[1] = snapRuntime()
	r.failed = bad
	r.fatal = bad > 0
	r.wall = done.Sub(start)
	r.settle = done.Sub(last)
	r.heapMB = liveHeapMB()

	ws1 := snapWire(nodes)
	base := float64(n)
	r.layers = map[string]float64{
		"transport.tcp.frames_per_update": ratio(float64(ws1.frames-ws0.frames), base),
		"transport.tcp.bytes_per_update":  ratio(float64(ws1.bytes-ws0.bytes), base),
		"transport.tcp.queue_depth_max":   float64(max(depthMax, ws1.depthMax)),
		"transport.tcp.reconnects":        float64(ws1.reconnects),
		"transport.tcp.dropped_link":      float64(ws1.droppedLink),
		"transport.tcp.digests_sent":      float64(ws1.digests),
		"transport.tcp.syncs_applied":     float64(ws1.syncs),
		"loadgen.late_p99_ms":             pct(r.late, 0.99) / 1e6,
	}
	if tr != nil {
		tr.spanLayers(r.layers)
	}
	return r, nil
}
