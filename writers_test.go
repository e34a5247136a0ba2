package updatec

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentWritersAllObjectKindsConverge drives every generic
// object kind with concurrent writers on every handle and requires
// convergence after Settle — the public-API analogue of the core
// package's concurrent-writer oracles, run under -race in CI.
func TestConcurrentWritersAllObjectKindsConverge(t *testing.T) {
	const n = 3
	// Each case builds its own cluster so the handle types stay
	// concrete; the workload shape is shared: every replica's handle is
	// driven from its own goroutine.
	drive := func(t *testing.T, perHandle int, work func(i, k int), settle func() bool) {
		t.Helper()
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				for k := 0; k < perHandle; k++ {
					work(i, k)
				}
			}(i)
		}
		wg.Wait()
		if !settle() {
			t.Fatal("cluster did not converge")
		}
	}

	t.Run("set", func(t *testing.T) {
		cluster, hs, err := New(n, SetObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) {
			hs[i].Insert(fmt.Sprint(k % 7))
			if k%3 == 0 {
				hs[i].Delete(fmt.Sprint((k + i) % 7))
			}
		}, func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("counter", func(t *testing.T) {
		cluster, hs, err := New(n, CounterObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) { hs[i].Add(int64(k%5 - 2)) },
			func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("register", func(t *testing.T) {
		cluster, hs, err := New(n, RegisterObject("r0"))
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) { hs[i].Write(fmt.Sprintf("p%d-%d", i, k)) },
			func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("textlog", func(t *testing.T) {
		cluster, hs, err := New(n, TextLogObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) { hs[i].Append(fmt.Sprintf("p%d line %d", i, k)) },
			func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("graph", func(t *testing.T) {
		cluster, hs, err := New(n, GraphObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) {
			u, v := fmt.Sprint(k%4), fmt.Sprint((k+1)%4)
			switch k % 4 {
			case 0:
				hs[i].AddVertex(u)
			case 1:
				hs[i].AddEdge(u, v)
			case 2:
				hs[i].RemoveEdge(u, v)
			default:
				hs[i].RemoveVertex(v)
			}
		}, func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("sequence", func(t *testing.T) {
		cluster, hs, err := New(n, SequenceObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) {
			if k%4 == 3 {
				hs[i].DeleteAt(k % 3)
			} else {
				hs[i].InsertAt(k%3, fmt.Sprintf("p%d", i))
			}
		}, func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("kv", func(t *testing.T) {
		cluster, hs, err := New(n, KVObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) { hs[i].Put(fmt.Sprint(k%9), fmt.Sprintf("p%d-%d", i, k)) },
			func() bool { cluster.Settle(); return cluster.Converged() })
	})
	t.Run("countermap", func(t *testing.T) {
		cluster, hs, err := New(n, CounterMapObject())
		if err != nil {
			t.Fatal(err)
		}
		defer cluster.Close()
		drive(t, 40, func(i, k int) { hs[i].Add(fmt.Sprint(k%9), int64(i+1)) },
			func() bool { cluster.Settle(); return cluster.Converged() })
	})
}

// TestConcurrentWritersCounterSumOracle is the public-API exact
// oracle: with concurrent writers on every replica, the counter must
// converge to the known sum — nothing issued may be lost, duplicated,
// or misfolded.
func TestConcurrentWritersCounterSumOracle(t *testing.T) {
	const n, perHandle = 3, 300
	cluster, hs, err := New(n, CounterObject())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perHandle; k++ {
				hs[i].Add(int64(i + 1))
			}
		}(i)
	}
	wg.Wait()
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("cluster did not converge")
	}
	if got, want := hs[0].Value(), int64(perHandle*(1+2+3)); got != want {
		t.Fatalf("sum %d, want %d", got, want)
	}
}

// TestConcurrentWritersShardedResize drives a sharded cluster with
// concurrent writers while the shard count changes mid-stream: every
// update issued before, during and after the moves must land in its
// owning shard exactly once, so the final per-key sums stay exact.
func TestConcurrentWritersShardedResize(t *testing.T) {
	const n, perHandle, keys = 3, 200, 8
	cluster, hs, err := New(n, CounterMapObject(), WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < perHandle; k++ {
				hs[i].Add(fmt.Sprint(k%keys), 1)
			}
		}(i)
	}
	// Resize concurrently with the writers, both directions.
	if err := cluster.Resize(4); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Resize(3); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	cluster.Settle()
	if !cluster.Converged() {
		t.Fatal("sharded cluster did not converge after resizes")
	}
	var total int64
	for k := 0; k < keys; k++ {
		total += hs[0].Value(fmt.Sprint(k))
	}
	if want := int64(n * perHandle); total != want {
		t.Fatalf("sum over keys %d, want %d", total, want)
	}
}

// TestConcurrentWritersSessionGuarantees checks that sessions (which
// use the timestamp-returning update path) keep their guarantees: a
// session write is immediately readable through the session, and
// after failing over to a settled replica the session's reads still
// cover everything it wrote.
func TestConcurrentWritersSessionGuarantees(t *testing.T) {
	cluster, _, err := New(3, CounterObject())
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	sess, err := cluster.Session(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		sess.Handle().Inc()
		var got int64
		if !sess.TryQuery(func(c *Counter) { got = c.Value() }) {
			t.Fatalf("read-your-writes: session read %d not served on the issuing replica", i)
		}
		if got < int64(i) {
			t.Fatalf("session read %d after %d session writes", got, i)
		}
	}
	cluster.Settle()
	sess.Switch(2)
	if !sess.Covered() {
		t.Fatal("settled replica does not cover the session")
	}
	var got int64
	if !sess.TryQuery(func(c *Counter) { got = c.Value() }) {
		t.Fatal("session read not served after failover to a settled replica")
	}
	if got != 10 {
		t.Fatalf("post-failover session read %d, want 10", got)
	}
}
