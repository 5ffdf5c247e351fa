package routing

import (
	"sync"
	"sync/atomic"
	"testing"

	"bgqflow/internal/torus"
)

// TestCacheCountersAcrossEpochBoundary pins the counter semantics at an
// epoch boundary, single-threaded first: Invalidate zeroes both
// counters, a cold pass over P pairs is exactly P misses, a warm pass
// exactly P hits — no lookup is double-counted or carried across the
// boundary.
func TestCacheCountersAcrossEpochBoundary(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	c := newTorusCache(tor)
	pairs := [][2]torus.NodeID{{0, 7}, {3, 100}, {5, 64}, {9, 33}}
	for epoch := 0; epoch < 3; epoch++ {
		for _, pr := range pairs {
			c.Route(pr[0], pr[1])
		}
		if h, m, _ := c.Counts(); h != 0 || m != uint64(len(pairs)) {
			t.Fatalf("epoch %d cold pass: counts (%d, %d), want (0, %d)", epoch, h, m, len(pairs))
		}
		for _, pr := range pairs {
			c.Route(pr[0], pr[1])
		}
		if h, m, _ := c.Counts(); h != uint64(len(pairs)) || m != uint64(len(pairs)) {
			t.Fatalf("epoch %d warm pass: counts (%d, %d), want (%d, %d)", epoch, h, m, len(pairs), len(pairs))
		}
		c.Invalidate()
		if h, m, inv := c.Counts(); h != 0 || m != 0 || inv != uint64(epoch+1) {
			t.Fatalf("after Invalidate %d: counts (%d, %d, %d), want (0, 0, %d)", epoch, h, m, inv, epoch+1)
		}
	}
}

// TestCacheConcurrentInvalidateAndLookups hammers the cache with
// readers while another goroutine fires Invalidate (the mid-campaign
// failure-event pattern), asserting the counters stay coherent:
// hits+misses never exceed the lookups issued (a stale count leaking
// across a reset would eventually trip this in combination with the
// final exactness check), routes stay correct throughout, and once the
// readers quiesce the boundary semantics are exact again. Run under
// -race this also proves the lock discipline around the counter
// resets.
func TestCacheConcurrentInvalidateAndLookups(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	c := newTorusCache(tor)
	pairs := [][2]torus.NodeID{{0, 7}, {3, 100}, {5, 64}, {9, 33}, {12, 80}, {1, 2}}
	want := make([]Route, len(pairs))
	for i, pr := range pairs {
		want[i] = DeterministicRoute(tor, pr[0], pr[1])
	}

	const readers = 4
	const rounds = 2000
	var issued atomic.Uint64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				pi := (i + g) % len(pairs)
				issued.Add(1)
				r := c.Route(pairs[pi][0], pairs[pi][1])
				if len(r.Links) != len(want[pi].Links) {
					t.Errorf("reader %d: route %d->%d has %d links, want %d",
						g, pairs[pi][0], pairs[pi][1], len(r.Links), len(want[pi].Links))
					return
				}
			}
		}(g)
	}
	var invWG sync.WaitGroup
	invWG.Add(1)
	go func() {
		defer invWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c.Invalidate()
			h, m, _ := c.Counts()
			if n := issued.Load(); h+m > n+readers {
				// Every counted lookup was issued; allow the readers'
				// in-flight lookups as slack.
				t.Errorf("counts (%d, %d) exceed %d issued lookups", h, m, n)
				return
			}
		}
	}()
	wg.Wait()
	// The readers are done; the invalidator checks stop only between
	// rounds, so closing now is race-free.
	close(stop)
	invWG.Wait()

	// Quiesced: the boundary semantics must be exact again.
	c.Invalidate()
	if h, m, _ := c.Counts(); h != 0 || m != 0 {
		t.Fatalf("counts (%d, %d) after quiesced Invalidate, want (0, 0)", h, m)
	}
	for _, pr := range pairs {
		c.Route(pr[0], pr[1])
		c.Route(pr[0], pr[1])
	}
	if h, m, _ := c.Counts(); h != uint64(len(pairs)) || m != uint64(len(pairs)) {
		t.Fatalf("counts (%d, %d) after quiesced passes, want (%d, %d)", h, m, len(pairs), len(pairs))
	}
}
