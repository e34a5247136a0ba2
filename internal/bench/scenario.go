package bench

import (
	"fmt"
	"io"

	"updatec/internal/sim"
)

// ScenarioScaleRow is one line of E19: one (population, workers) cell.
type ScenarioScaleRow struct {
	Replicas   int     `json:"replicas"`
	Workers    int     `json:"workers"`
	Broadcasts int     `json:"broadcasts"`
	Delivered  uint64  `json:"delivered"`
	SpanMs     float64 `json:"span_ms"`
	SerialMs   float64 `json:"serial_ms"`
	// StepsPerSec is critical-path throughput: deliveries over
	// (span + serial), where span sums each round's slowest worker.
	StepsPerSec float64 `json:"steps_per_sec"`
	// Speedup is this row's StepsPerSec over the workers=1 row of the
	// same population.
	Speedup float64 `json:"speedup"`
}

// ScenarioScaleResult reports experiment E19.
type ScenarioScaleResult struct {
	Rows []ScenarioScaleRow `json:"rows"`
	// Speedup4At100k is the headline acceptance number: steps/sec at 4
	// workers over 1 worker on the 10⁵-replica scenario.
	Speedup4At100k float64 `json:"speedup_4w_100k"`
}

// scaleSpec is the E19 workload: a scenario with churn, regional
// partitions healing piecewise, a flash crowd, zipf-hot keys and
// clock-skewed sessions — everything that makes eligibility
// non-trivial — without link faults, so every run drains completely
// and the delivered totals are comparable across worker counts.
func scaleSpec(n int) sim.ScenarioSpec {
	return sim.ScenarioSpec{
		N: n, Ops: 200, Seed: 1905, Keys: 64,
		Churn:   &sim.ChurnSpec{Events: 6},
		Flash:   &sim.FlashSpec{Crowds: 1, Width: 0.2, Boost: 8, Focus: 0.25},
		Zipf:    &sim.ZipfSpec{S: 1.8, V: 2},
		Regions: &sim.RegionSpec{Regions: 3, Cycles: 1, PartialHeals: true},
		Skew:    &sim.SkewSpec{MaxSkew: 2},
	}
}

// ScenarioScale (E19) measures the parallel adversary's throughput
// scaling on generated scenarios of 10⁴–10⁶ synthetic replicas.
// Throughput is critical-path steps/sec from the transport's
// serial-instrumented timing: per round, the slowest worker's time
// accrues to the span, so the reported speedup is a property of the
// schedule itself — what a w-core host would realize — rather than of
// however many cores this machine happens to have. The schedule per
// (seed, workers) cell is identical timed or untimed, concurrent or
// inline (TestSimParallelSpanTimingSameSchedule pins this).
func ScenarioScale(w io.Writer, quickRun bool) ScenarioScaleResult {
	section(w, "E19", "scenario generator at scale: parallel adversary steps/sec vs workers")
	pops := []int{10_000, 100_000, 1_000_000}
	if quickRun {
		pops = []int{10_000, 100_000}
	}
	var res ScenarioScaleResult
	t := newTable(w, "replicas", "workers", "broadcasts", "delivered", "span ms", "serial ms", "steps/sec", "speedup")
	for _, n := range pops {
		workerCounts := []int{1, 2, 4}
		opts := sim.ScaleOptions{}
		if n >= 1_000_000 {
			// A million replicas: one broadcast is already 10⁶
			// envelopes; halve the backlog budget and skip the
			// intermediate worker count to bound the run.
			workerCounts = []int{1, 4}
			opts.MaxBacklog = 1 << 19
		}
		if quickRun {
			opts.MaxBacklog = 1 << 18
		}
		var base float64
		for _, workers := range workerCounts {
			o := opts
			o.Workers = workers
			r := sim.RunScale(scaleSpec(n), o)
			row := ScenarioScaleRow{
				Replicas:    n,
				Workers:     workers,
				Broadcasts:  r.Broadcasts,
				Delivered:   r.Delivered,
				SpanMs:      float64(r.Span.Microseconds()) / 1000,
				SerialMs:    float64(r.Serial.Microseconds()) / 1000,
				StepsPerSec: r.StepsPerSec,
			}
			if workers == 1 {
				base = r.StepsPerSec
			}
			if base > 0 {
				row.Speedup = r.StepsPerSec / base
			}
			if n == 100_000 && workers == 4 {
				res.Speedup4At100k = row.Speedup
			}
			res.Rows = append(res.Rows, row)
			t.row(fmt.Sprintf("%d", n), fmt.Sprintf("%d", workers), fmt.Sprintf("%d", row.Broadcasts),
				fmt.Sprintf("%d", row.Delivered), fmt.Sprintf("%.2f", row.SpanMs),
				fmt.Sprintf("%.2f", row.SerialMs), fmt.Sprintf("%.0f", row.StepsPerSec),
				fmt.Sprintf("%.2fx", row.Speedup))
		}
	}
	t.flush()
	fmt.Fprintf(w, "speedup at 4 workers, 10⁵ replicas: %.2fx (critical-path basis)\n", res.Speedup4At100k)
	return res
}
