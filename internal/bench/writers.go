package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"updatec/internal/core"
	"updatec/internal/spec"
	"updatec/internal/transport"
)

// WritersRow is one line of E20: in-process writer contention on a
// single replica handle at one writer count.
type WritersRow struct {
	Writers int `json:"writers"`
	Ops     int `json:"ops"`
	// OpsPerSec is issued updates per second, wall clock from the first
	// update to the last delivery draining (the broadcasts are part of
	// the work, not an epilogue).
	OpsPerSec float64 `json:"ops_per_sec"`
}

// WritersResult reports experiment E20.
type WritersResult struct {
	Rows []WritersRow `json:"rows"`
}

// contendedRun drives totalOps counter increments through replica 0 of
// a 5-replica live cluster from `writers` goroutines and returns the
// wall-clock duration until every broadcast has drained. One replica
// takes all the writes — E20 measures ingestion contention inside one
// node, not cluster scaling — but the cluster size still matters to
// the result: every update is broadcast to all peers, so more peers
// means more per-operation transport work.
func contendedRun(writers, totalOps int) time.Duration {
	const n = 5
	net := transport.NewLive(n)
	defer net.Close()
	reps := core.Cluster(n, spec.Counter(), net, core.ClusterOptions{})

	perWriter := totalOps / writers
	var start sync.WaitGroup
	var done sync.WaitGroup
	start.Add(1)
	done.Add(writers)
	for w := 0; w < writers; w++ {
		go func() {
			defer done.Done()
			start.Wait()
			for i := 0; i < perWriter; i++ {
				reps[0].Update(spec.Add{N: 1})
			}
		}()
	}
	t0 := time.Now()
	start.Done()
	done.Wait()
	net.Drain()
	return time.Since(t0)
}

// Writers (E20) measures single-replica update throughput under
// in-process writer contention: 1/2/4/8 goroutines hammering one
// replica handle, every update taking the replica's one mutex path
// (stamp and encode under the lock, broadcast outside it, self-delivery
// served from the loopback stash).
func Writers(w io.Writer, quickRun bool) WritersResult {
	section(w, "E20", "contended writers: single-replica ops/sec")
	totalOps := 200_000
	if quickRun {
		totalOps = 40_000
	}
	var res WritersResult
	t := newTable(w, "writers", "ops", "ops/sec")
	for _, writers := range []int{1, 2, 4, 8} {
		// One warmup pass keeps scheduler/allocator noise out of the
		// measured run at quick sizes.
		contendedRun(writers, totalOps/10)
		elapsed := contendedRun(writers, totalOps)
		row := WritersRow{
			Writers:   writers,
			Ops:       totalOps,
			OpsPerSec: float64(totalOps) / elapsed.Seconds(),
		}
		res.Rows = append(res.Rows, row)
		t.row(fmt.Sprintf("%d", writers), fmt.Sprintf("%d", row.Ops), fmt.Sprintf("%.0f", row.OpsPerSec))
	}
	t.flush()
	return res
}
