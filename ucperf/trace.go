package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"updatec"
	"updatec/internal/clock"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// The traced run builds the same construction as the untraced one, but
// over decorators of the interfaces it is assembled from: the spec and
// its codec (spec.UQADT plus its optional capabilities) and the
// transport (transport.ResizableNetwork). Every decorator only times
// and counts calls into the layer below it; none changes arguments,
// results or call order, so the traced program is the same program.

// spanKind names a layer boundary.
type spanKind uint8

const (
	spUpdate      spanKind = iota // typed handle update call (generator)
	spQuery                       // keyed read (CounterMap.Value)
	spScan                        // whole-state read (CounterMap.All)
	spBroadcast                   // transport Broadcast
	spSelfDeliver                 // synchronous self-delivery inside Broadcast
	spQueueWait                   // Broadcast start → remote handler entry (async)
	spDeliver                     // remote handler: decode, lock wait, insert (async)
	spSpecQuery                   // spec Query: output building
	spClientSend                  // wire client update call
	spClientFlush                 // wire client Flush barrier
	spHeal                        // time inside Heal
	spSettle                      // Settle / convergence wait
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"updatec.update", "updatec.query", "updatec.scan", "transport.broadcast",
	"core.self_deliver", "transport.queue_wait", "core.deliver", "spec.query",
	"updatec.client_send", "updatec.client_flush", "core.heal_call", "core.settle",
}

// async spans are caused by their parent but do not run inside it, so
// they are not subtracted from the parent's self time.
func (k spanKind) async() bool { return k == spQueueWait || k == spDeliver }

// span is one recorded interval. trace is shared by every span one
// operation causes (the generator's operation number); parent indexes the
// causing span, -1 for a root.
type span struct {
	start, end int64 // ns since the tracer epoch
	parent     int32
	trace      uint32
	kind       spanKind
}

// leafKind names an unspanned leaf timing: calls too short or too
// frequent to carry a span each.
type leafKind uint8

const (
	leafEncode leafKind = iota // codec append (every call)
	leafDecode                 // codec decode (every call)
	leafApply                  // spec Apply (every 64th call)
	nLeafKinds
)

// leafBuf is a fixed-capacity sample buffer that concurrent writers
// fill by claiming slots with one atomic add.
type leafBuf struct {
	n   atomic.Int64
	buf []int64
}

func (l *leafBuf) add(v int64) {
	if i := l.n.Add(1) - 1; i < int64(len(l.buf)) {
		l.buf[i] = v
	}
}

func (l *leafBuf) samples() []int64 {
	n := l.n.Load()
	if n > int64(len(l.buf)) {
		n = int64(len(l.buf))
	}
	return l.buf[:n]
}

// delivery is one remote delivery as its receiver recorded it: the
// broadcast span it came from (-1 if unknown), handler entry and exit.
type delivery struct {
	bcast   int32
	at, end int64
}

// deliveryLog holds one receiver's deliveries. Each replica's deliveries
// run on one goroutine at a time, so receivers never contend for a slot
// with each other or with the generator.
type deliveryLog struct {
	n    atomic.Int64
	recs []delivery
}

// tracer holds the spans of one traced round in memory. The generator's
// spans go to spans, claimed with an atomic add; remote deliveries go
// to their receiver's log and become queue_wait and deliver spans in
// recorded. A span's end is written only by the goroutine that began
// it.
type tracer struct {
	epoch   time.Time
	on      atomic.Bool
	n       atomic.Int64
	spans   []span
	dropped atomic.Int64

	deliveries []deliveryLog
	// all caches recorded's result for the current round.
	all []span

	// cur and curBcast are the generator goroutine's open operation and
	// broadcast spans. Only the generator issues operations and
	// broadcasts, so only it reads or writes them.
	cur      int32
	curBcast int32
	trace    uint32

	// sent[origin][clock] is the broadcast span (+1) of the update
	// stamped (clock, origin). Every update message starts with its
	// timestamp, so a remote delivery finds its broadcast without a
	// shared map. The broadcaster writes the slot before the payload
	// is queued and the receiver reads it after dequeuing, so the
	// transport's queue orders the two.
	sent [][]int32

	leaves  [nLeafKinds]leafBuf
	applies atomic.Int64

	// t0 and t1 bound the measured phase (ns since epoch).
	t0, t1 int64

	// spanCap and leafCap size the buffers reset allocates.
	spanCap, leafCap int

	// wire is the traced wire object, registered once per tracer.
	wire    updatec.Object[*portHandle]
	wireSet bool
}

func newTracer(spanCap, leafCap int) *tracer {
	return &tracer{epoch: time.Now(), cur: -1, curBcast: -1, spanCap: spanCap, leafCap: leafCap}
}

// reset allocates fresh buffers for a traced round and starts
// recording.
func (t *tracer) reset() {
	t.spans = make([]span, t.spanCap)
	t.sent = make([][]int32, 3)
	t.deliveries = make([]deliveryLog, 3)
	for i := range t.sent {
		t.sent[i] = make([]int32, t.spanCap)
		// A replica receives two of every three updates; a quarter of
		// the generator's span capacity covers the largest round.
		t.deliveries[i].recs = make([]delivery, t.spanCap/4)
	}
	for i := range t.leaves {
		t.leaves[i].buf = make([]int64, t.leafCap)
		t.leaves[i].n.Store(0)
	}
	t.n.Store(0)
	t.dropped.Store(0)
	t.all = nil
	t.cur, t.curBcast, t.trace = -1, -1, 0
	t.applies.Store(0)
	t.t0 = t.now()
	t.on.Store(true)
}

// release drops a stopped round's buffers (about 86 MB at the run's
// capacities), so the untraced rounds between traced ones see the heap,
// GC and allocation of the untraced program.
func (t *tracer) release() {
	t.spans, t.sent, t.deliveries, t.all = nil, nil, nil, nil
	for i := range t.leaves {
		t.leaves[i].buf = nil
	}
}

// stop ends recording; calls after it are passed through untimed.
func (t *tracer) stop() {
	t.on.Store(false)
	t.t1 = t.now()
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin records the start of a span under parent (-1 for a root) and
// returns its index, or -1 when recording is off or the buffer is full.
// The span carries its parent's trace id.
func (t *tracer) begin(k spanKind, parent int32) int32 {
	if !t.on.Load() {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: t.now(), end: -1, parent: parent, trace: t.traceOf(parent), kind: k}
	return int32(i)
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = t.now()
	}
}

// traceOf returns the trace id of span i (0 for none).
func (t *tracer) traceOf(i int32) uint32 {
	if i < 0 {
		return 0
	}
	return t.spans[i].trace
}

// slot returns the sent entry of an update message, nil when the
// message's timestamp falls outside the table.
func (t *tracer) slot(payload []byte) *int32 {
	ts, _, err := clock.DecodeTimestamp(payload)
	if err != nil || ts.Proc < 0 || ts.Proc >= len(t.sent) || ts.Clock >= uint64(len(t.sent[ts.Proc])) {
		return nil
	}
	return &t.sent[ts.Proc][ts.Clock]
}

// op opens a generator operation span as the current parent.
func (t *tracer) op(k spanKind) int32 {
	t.trace++
	t.cur = t.begin(k, -1)
	if t.cur >= 0 {
		t.spans[t.cur].trace = t.trace
	}
	return t.cur
}

func (t *tracer) opEnd(i int32) {
	t.end(i)
	t.cur = -1
}

// record logs a remote delivery to replica id.
func (t *tracer) record(id int, d delivery) {
	l := &t.deliveries[id]
	if i := l.n.Add(1) - 1; i < int64(len(l.recs)) {
		l.recs[i] = d
	} else {
		t.dropped.Add(1)
	}
}

// recorded returns the round's spans: the generator's, then a queue_wait
// (when the broadcast is known) and a deliver span per remote delivery.
// Call it after the round's deliveries have completed.
func (t *tracer) recorded() []span {
	if t.all != nil {
		return t.all
	}
	n := min(t.n.Load(), int64(len(t.spans)))
	all := append([]span(nil), t.spans[:n]...)
	for i := range t.deliveries {
		l := &t.deliveries[i]
		for _, d := range l.recs[:min(l.n.Load(), int64(len(l.recs)))] {
			var trace uint32
			if d.bcast >= 0 {
				b := t.spans[d.bcast]
				trace = b.trace
				all = append(all, span{start: b.start, end: d.at, parent: d.bcast, trace: trace, kind: spQueueWait})
			}
			all = append(all, span{start: d.at, end: d.end, parent: d.bcast, trace: trace, kind: spDeliver})
		}
	}
	t.all = all
	return all
}

// selfTimes returns every span's duration minus the part covered by
// its synchronous children, grouped by kind, in nanoseconds.
func selfTimes(spans []span) [nSpanKinds][]int64 {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 && !s.kind.async() {
			child[s.parent] += s.end - s.start
		}
	}
	var out [nSpanKinds][]int64
	for i, s := range spans {
		if s.end >= 0 {
			out[s.kind] = append(out[s.kind], s.end-s.start-child[i])
		}
	}
	return out
}

// durations returns span durations of one kind, optionally only those
// whose parent has kind parentKind.
func durations(spans []span, k spanKind, parentKind int) []int64 {
	var out []int64
	for _, s := range spans {
		if s.kind != k || s.end < 0 {
			continue
		}
		if parentKind >= 0 && (s.parent < 0 || int(spans[s.parent].kind) != parentKind) {
			continue
		}
		out = append(out, s.end-s.start)
	}
	return out
}

// writeSpans writes the spans of the round's first maxTrace operations,
// with their deliveries, plus the spans tied to no operation (settle,
// heal, flush), as tab-separated lines. id is the span's index in the
// round, which parent refers to.
func writeSpans(path string, spans []span, maxTrace uint32) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tkind\ttrace\tparent\tstart_ns\tend_ns")
	for i, s := range spans {
		if s.trace <= maxTrace {
			fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, spanNames[s.kind], s.trace, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedSpec decorates the counter-map spec. Embedding promotes every
// method of spec.CounterMapSpec, so the decorator implements exactly
// the optional capabilities the spec does (checked by
// TestTracedSpecCapabilities); the overrides only time the call.
type tracedSpec struct {
	spec.CounterMapSpec
	tr *tracer
}

func (s tracedSpec) Apply(st spec.State, u spec.Update) spec.State {
	if !s.tr.on.Load() || s.tr.applies.Add(1)&63 != 0 {
		return s.CounterMapSpec.Apply(st, u)
	}
	t0 := time.Now()
	out := s.CounterMapSpec.Apply(st, u)
	s.tr.leaves[leafApply].add(int64(time.Since(t0)))
	return out
}

func (s tracedSpec) Query(st spec.State, in spec.QueryInput) spec.QueryOutput {
	tr := s.tr
	i := tr.begin(spSpecQuery, tr.cur)
	out := s.CounterMapSpec.Query(st, in)
	tr.end(i)
	return out
}

func (s tracedSpec) AppendUpdate(dst []byte, u spec.Update) ([]byte, error) {
	if !s.tr.on.Load() {
		return s.CounterMapSpec.AppendUpdate(dst, u)
	}
	t0 := time.Now()
	out, err := s.CounterMapSpec.AppendUpdate(dst, u)
	s.tr.leaves[leafEncode].add(int64(time.Since(t0)))
	return out, err
}

func (s tracedSpec) EncodeUpdate(u spec.Update) ([]byte, error) {
	return s.AppendUpdate(nil, u)
}

func (s tracedSpec) DecodeUpdate(b []byte) (spec.Update, error) {
	if !s.tr.on.Load() {
		return s.CounterMapSpec.DecodeUpdate(b)
	}
	t0 := time.Now()
	u, err := s.CounterMapSpec.DecodeUpdate(b)
	s.tr.leaves[leafDecode].add(int64(time.Since(t0)))
	return u, err
}

// tracedNet decorates a resizable network (LiveNetwork or SimNetwork),
// the interface core.ShardedReplica broadcasts and delivers through.
type tracedNet struct {
	transport.ResizableNetwork
	tr *tracer
}

func (n *tracedNet) Broadcast(from int, payload []byte) {
	n.BroadcastShardEpoch(from, 0, 0, payload)
}

func (n *tracedNet) BroadcastShard(from, shard int, payload []byte) {
	n.BroadcastShardEpoch(from, shard, 0, payload)
}

func (n *tracedNet) BroadcastShardEpoch(from, shard, epoch int, payload []byte) {
	tr := n.tr
	i := tr.begin(spBroadcast, tr.cur)
	if p := tr.slot(payload); p != nil && i >= 0 {
		*p = i + 1
	}
	prev := tr.curBcast
	tr.curBcast = i
	n.ResizableNetwork.BroadcastShardEpoch(from, shard, epoch, payload)
	tr.curBcast = prev
	tr.end(i)
}

func (n *tracedNet) AttachRouter(id int, h transport.EpochHandler) {
	tr := n.tr
	n.ResizableNetwork.AttachRouter(id, func(from, shard, epoch int, payload []byte) {
		if from == id {
			// Self-delivery runs synchronously inside Broadcast, on
			// the broadcasting goroutine.
			i := tr.begin(spSelfDeliver, tr.curBcast)
			h(from, shard, epoch, payload)
			tr.end(i)
			return
		}
		if !tr.on.Load() {
			h(from, shard, epoch, payload)
			return
		}
		d := delivery{bcast: -1, at: tr.now()}
		if p := tr.slot(payload); p != nil {
			d.bcast = *p - 1
		}
		h(from, shard, epoch, payload)
		d.end = tr.now()
		tr.record(id, d)
	})
}

// spanLayers derives the span-based per-layer metrics of one traced
// round into m.
func (t *tracer) spanLayers(m map[string]float64) {
	spans := t.recorded()
	self := selfTimes(spans)
	us := func(xs []int64, q float64) float64 { return pct(xs, q) / 1e3 }
	m["core.update_self_us_p50"] = us(self[spUpdate], 0.5)
	m["core.update_self_us_p99"] = us(self[spUpdate], 0.99)
	m["transport.broadcast_us_p50"] = us(self[spBroadcast], 0.5)
	m["transport.broadcast_us_p99"] = us(self[spBroadcast], 0.99)
	m["transport.queue_wait_us_p50"] = us(self[spQueueWait], 0.5)
	m["transport.queue_wait_us_p99"] = us(self[spQueueWait], 0.99)
	m["core.deliver_us_p50"] = us(self[spDeliver], 0.5)
	m["core.deliver_us_p99"] = us(self[spDeliver], 0.99)
	m["core.query_fold_us_p50"] = us(self[spQuery], 0.5)
	m["core.query_fold_us_p99"] = us(self[spQuery], 0.99)
	m["spec.query_output_us"] = us(durations(spans, spSpecQuery, int(spScan)), 0.5)
	m["updatec.client_send_us_p50"] = us(self[spClientSend], 0.5)
	m["updatec.client_send_us_p99"] = us(self[spClientSend], 0.99)
	m["updatec.client_flush_ms"] = pct(self[spClientFlush], 0.5) / 1e6
	m["core.heal_call_ms"] = pct(self[spHeal], 0.5) / 1e6
	m["core.encode_ns"] = pct(t.leaves[leafEncode].samples(), 0.5)
	m["core.decode_ns"] = pct(t.leaves[leafDecode].samples(), 0.5)
	m["spec.apply_ns"] = pct(t.leaves[leafApply].samples(), 0.5)
	queries := float64(len(self[spQuery]) + len(self[spScan]))
	m["spec.queries"] = queries
	m["spec.apply_per_query"] = ratio(float64(t.applies.Load()), queries)

	// How much of the generator's phase the layer spans account for: the
	// rest is the generator's own loop, pacing and sampling.
	var covered int64
	for _, s := range spans {
		if s.parent < 0 && s.end >= 0 && !s.kind.async() {
			covered += s.end - s.start
		}
	}
	m["trace.layer_gap_frac"] = 1 - ratio(float64(covered), float64(t.t1-t.t0))
}
