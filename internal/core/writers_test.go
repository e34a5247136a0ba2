package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"updatec/internal/spec"
	"updatec/internal/transport"
)

// Concurrent writers on one replica handle: every update takes the
// replica's mutex path (stamp and encode under the lock, broadcast
// outside it, self-delivery from the loopback stash) while readers
// hammer the shared-lock query paths. Run under -race these are the
// memory-safety gate for that path; the oracles are the states every
// interleaving must reach.

// TestConcurrentWritersOracleCounter races real writers on the live
// transport and checks the one state every interleaving must reach:
// the counter's final value is the exact sum of everything issued,
// identical across replicas. Concurrent readers run the query,
// read-state and version paths while the writers issue.
func TestConcurrentWritersOracleCounter(t *testing.T) {
	const n = 3
	for _, writers := range []int{2, 4, 8} {
		t.Run(fmt.Sprintf("writers=%d", writers), func(t *testing.T) {
			perWriter := 400
			var want int64
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i++ {
					want += int64(w + i%5)
				}
			}
			net := transport.NewLive(n)
			defer net.Close()
			reps := Cluster(n, spec.Counter(), net, ClusterOptions{})
			var wg sync.WaitGroup
			stop := make(chan struct{})
			// Two readers: one queries, one snapshots version/state pairs.
			for rd := 0; rd < 2; rd++ {
				wg.Add(1)
				go func(rd int) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						if rd == 0 {
							reps[0].Query(spec.Read{})
						} else {
							reps[0].ReadStateAt(func(spec.State, uint64) {})
							reps[1].Version()
						}
					}
				}(rd)
			}
			var ww sync.WaitGroup
			for w := 0; w < writers; w++ {
				ww.Add(1)
				go func(w int) {
					defer ww.Done()
					for i := 0; i < perWriter; i++ {
						reps[0].Update(spec.Add{N: int64(w + i%5)})
					}
				}(w)
			}
			ww.Wait()
			close(stop)
			wg.Wait()
			net.Drain()
			for p, r := range reps {
				if got := int64(r.Query(spec.Read{}).(spec.CtrVal)); got != want {
					t.Fatalf("replica %d sum %d, want %d", p, got, want)
				}
			}
		})
	}
}

// TestConcurrentWritersConvergeAllKinds races 4 writers of random
// updates per object kind on the live transport and requires every
// replica to converge. For kinds whose updates commute the converged
// state must additionally equal a sequential fold of the same update
// multiset on a single replica, since any order folds to that state.
func TestConcurrentWritersConvergeAllKinds(t *testing.T) {
	const n, writers, perWriter = 3, 4, 60
	script := func(adt spec.UQADT, w int) []spec.Update {
		rng := rand.New(rand.NewSource(int64(w)*389 + 11))
		us := make([]spec.Update, perWriter)
		for i := range us {
			us[i] = randomUpdateFor(adt, rng)
		}
		return us
	}
	for _, name := range spec.Names() {
		adt, err := spec.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			net := transport.NewLive(n)
			defer net.Close()
			reps := Cluster(n, adt, net, ClusterOptions{})
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for _, u := range script(adt, w) {
						reps[w%n].Update(u)
					}
				}(w)
			}
			wg.Wait()
			net.Drain()
			want := reps[0].StateKey()
			for p, r := range reps[1:] {
				if got := r.StateKey(); got != want {
					t.Fatalf("replica %d diverged: %s vs %s", p+1, got, want)
				}
			}
			if !spec.IsCommutative(adt) {
				return
			}
			seq := transport.NewSim(transport.SimOptions{N: 1, Seed: 1})
			ref := Cluster(1, adt, seq, ClusterOptions{})[0]
			for w := 0; w < writers; w++ {
				for _, u := range script(adt, w) {
					ref.Update(u)
				}
			}
			seq.Quiesce()
			if got := ref.StateKey(); got != want {
				t.Fatalf("commutative kind: concurrent state %s, sequential fold %s", want, got)
			}
		})
	}
}
