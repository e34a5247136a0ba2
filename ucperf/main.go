// Command ucperf is the repository benchmark: it drives the update
// consistent construction from outside, through its public entry
// points, on four workloads (live-write, live-readmix, heal, wire),
// checks that every round converged to the exact state the generator
// issued, and prints the end-to-end metrics by name and unit. With
// -trace 1 it alternates untraced rounds with rounds over decorated
// layers and reports the per-layer metrics and the tracing overhead.
//
//	go run . -workload live-write -seed 1 -seconds 10 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics (the gated end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1). NOTES.md says why each
// workload exists and what each metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload to its round and the operations in one
// round. Each run repeats rounds until its time is up and reports
// medians over rounds; a fixed round size keeps a round's log length,
// heap and replay depth the same from run to run.
var workloads = map[string]struct {
	run func(rng *rand.Rand, tr *tracer, n int) (round, error)
	ops int
}{
	"live-write":   {liveWrite, 100_000},
	"live-readmix": {liveReadMix, 8_000},
	"heal":         {heal, 3 * 10_000}, // 10k updates per side
	"wire":         {wire, wireRate},   // one second at wireRate
}

// metric describes one reported metric.
type metric struct {
	name, unit string
}

// endToEnd lists every end-to-end metric in print order. gated marks
// the ones every workload exercises; those go into the JSON result
// line, the rest are printed for the workloads they apply to.
var endToEnd = []struct {
	metric
	gated bool
}{
	{metric{"ops_per_s", "1/s"}, true},
	{metric{"update_p50_us", "us"}, true},
	{metric{"update_p99_us", "us"}, false},
	{metric{"query_p50_us", "us"}, false},
	{metric{"query_p99_us", "us"}, false},
	{metric{"scan_p50_us", "us"}, false},
	{metric{"scan_p99_us", "us"}, false},
	{metric{"visible_p50_ms", "ms"}, false},
	{metric{"visible_p99_ms", "ms"}, false},
	{metric{"settle_ms", "ms"}, true},
	{metric{"heap_mb", "MB"}, true},
	{metric{"setup_s", "s"}, true},
	{metric{"failed_frac", "frac"}, false},
}

// perLayer lists every per-layer metric reported with -trace 1. A
// layer off the workload's path reports 0.
var perLayer = []metric{
	{"core.update_self_us_p50", "us"},
	{"core.update_self_us_p99", "us"},
	{"core.encode_ns", "ns"},
	{"transport.broadcast_us_p50", "us"},
	{"transport.broadcast_us_p99", "us"},
	{"transport.queue_wait_us_p50", "us"},
	{"transport.queue_wait_us_p99", "us"},
	{"core.deliver_us_p50", "us"},
	{"core.deliver_us_p99", "us"},
	{"core.decode_ns", "ns"},
	{"core.late_insert_frac", "frac"},
	{"core.entries_landed", "count"},
	{"core.log_len", "count"},
	{"core.heal_call_ms", "ms"},
	{"core.sync_applied", "count"},
	{"core.dup_dropped", "count"},
	{"transport.sim_steps", "count"},
	{"spec.apply_per_query", "count"},
	{"spec.queries", "count"},
	{"spec.apply_ns", "ns"},
	{"core.query_cache_hit_frac", "frac"},
	{"core.cache_lookups", "count"},
	{"core.query_fold_us_p50", "us"},
	{"core.query_fold_us_p99", "us"},
	{"spec.query_output_us", "us"},
	{"updatec.client_send_us_p50", "us"},
	{"updatec.client_send_us_p99", "us"},
	{"updatec.client_flush_ms", "ms"},
	{"transport.tcp.frames_per_update", "count"},
	{"transport.tcp.bytes_per_update", "B"},
	{"transport.tcp.queue_depth_max", "count"},
	{"transport.tcp.reconnects", "count"},
	{"transport.tcp.dropped_link", "count"},
	{"transport.tcp.digests_sent", "count"},
	{"transport.tcp.syncs_applied", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"runtime.cpu_us_per_op", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"trace.layer_gap_frac", "frac"},
	{"trace.overhead_ops_per_s", "1/s"},
	{"trace.overhead_update_p50_us", "us"},
}

// summarize reduces rounds to the end-to-end metrics: the median over
// rounds of each round's figure. Visibility samples are few per round,
// so their percentiles are taken over all rounds pooled.
func summarize(rs []round) map[string]float64 {
	per := map[string][]float64{}
	var vis []int64
	ops, failed := 0, 0
	for _, r := range rs {
		for k, v := range r.e2e {
			per[k] = append(per[k], v)
		}
		vis = append(vis, r.vis...)
		ops += r.ops
		failed += r.failed
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	out["visible_p50_ms"] = pct(vis, 0.5) / 1e6
	out["visible_p99_ms"] = pct(vis, 0.99) / 1e6
	out["failed_frac"] = ratio(float64(failed), float64(ops))
	return out
}

// layers reduces traced rounds to the per-layer metrics (medians over
// rounds); the runtime metrics come from the untraced rounds, so they
// describe the program without the decorators.
func layers(plain, traced []round) map[string]float64 {
	per := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.layers {
			per[k] = append(per[k], v)
		}
	}
	for _, r := range plain {
		m := map[string]float64{}
		r.runtimeLayers(m)
		for k, v := range m {
			per[k] = append(per[k], v)
		}
	}
	out := map[string]float64{}
	for k, v := range per {
		out[k] = median(v)
	}
	return out
}

func fmtValue(v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf("%.6g", v)
}

// jsonValue is a value as measured; a metric with nothing to measure on
// this workload is reported as 0.
func jsonValue(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: live-write, live-readmix, heal or wire")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured time; rounds repeat until it is used")
	trace := flag.Int("trace", 0, "1 alternates untraced and traced rounds and reports per-layer metrics")
	spansOut := flag.String("spans", "", "with -trace 1, write the last traced round's spans here (TSV)")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ucperf: need -workload live-write|live-readmix|heal|wire, -seconds ≥ 1, -trace 0|1")
		os.Exit(2)
	}

	var tr *tracer
	if *trace == 1 {
		tr = newTracer(1<<20, 1<<20)
	}
	var plain, traced []round
	end := time.Now().Add(time.Duration(*seconds) * time.Second)
	for i := 0; ; i++ {
		var rtr *tracer
		if tr != nil && i%2 == 1 {
			rtr = tr
		}
		rng := rand.New(rand.NewSource(*seed*1_000_003 + int64(i)))
		r, err := wl.run(rng, rtr, wl.ops)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ucperf: %s round %d: %v\n", *name, i, err)
			os.Exit(1)
		}
		r.reduce()
		fmt.Printf("round %d traced=%v ops=%d failed=%d ops_per_s=%.6g update_p50=%.4gus update_p99=%.4gus settle=%.4gms heap=%.4gMB setup=%.4gs\n",
			i, rtr != nil, r.ops, r.failed, r.e2e["ops_per_s"], r.e2e["update_p50_us"], r.e2e["update_p99_us"],
			r.e2e["settle_ms"], r.e2e["heap_mb"], r.e2e["setup_s"])
		if rtr != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if r.fatal {
			fmt.Fprintf(os.Stderr, "ucperf: %s round %d missed a deadline; stopping\n", *name, i)
			break
		}
		// A traced run ends on a traced round, whose spans the report
		// below prints.
		if time.Now().After(end) && (tr == nil || rtr != nil) {
			break
		}
		if rtr != nil {
			rtr.release()
			runtime.GC()
		}
	}

	all := append(append([]round{}, plain...), traced...)
	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.ops
		failed += r.failed
	}
	e2e := summarize(plain)
	fmt.Printf("ucperf workload=%s seed=%d seconds=%d trace=%d rounds=%d traced=%d\n",
		*name, *seed, *seconds, *trace, len(plain), len(traced))
	fmt.Printf("end-to-end, untraced (median over rounds):\n")
	for _, m := range endToEnd {
		fmt.Printf("  %-16s %12s %s\n", m.name, fmtValue(e2e[m.name]), m.unit)
	}
	fmt.Printf("  attempted %d, failed %d\n", attempted, failed)
	var samples [3]int
	vis := 0
	for _, r := range plain {
		for i, n := range r.samples {
			samples[i] += n
		}
		vis += len(r.vis)
	}
	if len(plain) > 0 {
		fmt.Printf("  latency samples per round (mean): update %d, query %d, scan %d; visibility %d pooled\n",
			samples[0]/len(plain), samples[1]/len(plain), samples[2]/len(plain), vis)
	}

	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]jsonMetric{}}
	if tr == nil {
		for _, m := range endToEnd {
			if m.gated {
				res.Metrics[m.name] = jsonMetric{jsonValue(e2e[m.name]), m.unit}
			}
		}
	} else {
		te2e := summarize(traced)
		fmt.Printf("end-to-end, traced (median over rounds):\n")
		for _, m := range endToEnd {
			fmt.Printf("  %-16s %12s %s\n", m.name, fmtValue(te2e[m.name]), m.unit)
		}
		lm := layers(plain, traced)
		lm["trace.overhead_ops_per_s"] = te2e["ops_per_s"] - e2e["ops_per_s"]
		lm["trace.overhead_update_p50_us"] = te2e["update_p50_us"] - e2e["update_p50_us"]
		fmt.Printf("per-layer (traced rounds; runtime.* from untraced rounds):\n")
		for _, m := range perLayer {
			fmt.Printf("  %-32s %12s %s\n", m.name, fmtValue(lm[m.name]), m.unit)
			res.Metrics[m.name] = jsonMetric{jsonValue(lm[m.name]), m.unit}
		}
		printSelfTimes(tr)
		if *spansOut != "" {
			if err := writeSpans(*spansOut, tr.recorded(), 20_000); err != nil {
				fmt.Fprintf(os.Stderr, "ucperf: writing spans: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "ucperf: correctness gate failed: %d of %d operations\n", failed, attempted)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ucperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printSelfTimes prints the last traced round's self time per span
// kind: the layer budget of that round.
func printSelfTimes(tr *tracer) {
	self := selfTimes(tr.recorded())
	type row struct {
		name  string
		n     int
		total int64
		p50   float64
		p99   float64
	}
	var rows []row
	for k, xs := range self {
		if len(xs) == 0 {
			continue
		}
		var tot int64
		for _, x := range xs {
			tot += x
		}
		rows = append(rows, row{spanNames[k], len(xs), tot, pct(xs, 0.5) / 1e3, pct(xs, 0.99) / 1e3})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	fmt.Printf("self time by span, last traced round (%d spans, %d dropped, phase %.1f ms):\n",
		len(tr.recorded()), tr.dropped.Load(), float64(tr.t1-tr.t0)/1e6)
	for _, r := range rows {
		fmt.Printf("  %-22s n=%-8d total=%10.2f ms  p50=%9.3f us  p99=%9.3f us\n",
			r.name, r.n, float64(r.total)/1e6, r.p50, r.p99)
	}
}
