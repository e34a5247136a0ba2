package main

import (
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// pct returns the q-quantile (0 < q ≤ 1) of the samples by nearest
// rank, sorting them in place. Empty input gives NaN, which the report
// prints as "n/a".
func pct(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(xs[i])
}

// median of the non-NaN values; NaN when there are none.
func median(xs []float64) float64 {
	var ok []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			ok = append(ok, x)
		}
	}
	if len(ok) == 0 {
		return math.NaN()
	}
	slices.Sort(ok)
	n := len(ok)
	if n%2 == 1 {
		return ok[n/2]
	}
	return (ok[n/2-1] + ok[n/2]) / 2
}

// ratio is a/b, NaN when the base is zero.
func ratio(a, b float64) float64 {
	if b == 0 {
		return math.NaN()
	}
	return a / b
}

// rtSnap is one snapshot of the Go runtime and process counters; the
// benchmark diffs two around each measured phase.
type rtSnap struct {
	cpu        time.Duration // user + system CPU of the process
	numGC      uint32
	pauseTotal uint64
	totalAlloc uint64
}

func snapRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return rtSnap{cpu: cpu, numGC: ms.NumGC, pauseTotal: ms.PauseTotalNs, totalAlloc: ms.TotalAlloc}
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
