package routing

import (
	"slices"
	"testing"

	"bgqflow/internal/torus"
)

// newTorusCache memoizes the torus's default deterministic route, the
// oracle a torus-backed network's cache serves.
func newTorusCache(tor *torus.Torus) *Cache {
	return NewCache(func(src, dst torus.NodeID) []int { return DeterministicRoute(tor, src, dst).Links })
}

func TestCacheMatchesUncachedRoutes(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	c := newTorusCache(tor)
	for src := torus.NodeID(0); src < 16; src++ {
		for _, dst := range []torus.NodeID{0, 1, 63, torus.NodeID(tor.Size() - 1)} {
			want := DeterministicRoute(tor, src, dst)
			for pass := 0; pass < 2; pass++ { // miss then hit
				got := c.Route(src, dst)
				if len(got.Links) != len(want.Links) {
					t.Fatalf("cache route %d->%d has %d hops, want %d", src, dst, len(got.Links), len(want.Links))
				}
				for i := range want.Links {
					if got.Links[i] != want.Links[i] {
						t.Fatalf("cache route %d->%d diverges at hop %d", src, dst, i)
					}
				}
			}
		}
	}
	hits, misses, _ := c.Counts()
	if hits == 0 || misses == 0 {
		t.Fatalf("stats hits=%d misses=%d, want both nonzero", hits, misses)
	}
}

func TestCacheLinksHaveNoSpareCapacity(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	c := newTorusCache(tor)
	r := c.Route(0, torus.NodeID(tor.Size()-1))
	if cap(r.Links) != len(r.Links) {
		t.Fatalf("cached Links cap %d != len %d; append would corrupt the cache", cap(r.Links), len(r.Links))
	}
	// Appending (as ionet does for the 11th link) must not change the
	// cached entry.
	_ = append(r.Links, -1)
	again := c.Route(0, torus.NodeID(tor.Size()-1))
	for _, l := range again.Links {
		if l == -1 {
			t.Fatal("append to a returned route corrupted the cache")
		}
	}
}

func TestCacheInvalidatePerFailureEvent(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	c := newTorusCache(tor)
	c.Route(0, 5)
	c.Route(0, 9)
	if c.Len() != 2 || c.Epoch() != 0 {
		t.Fatalf("len=%d epoch=%d before any failure, want 2/0", c.Len(), c.Epoch())
	}

	// First failure event: purged, epoch bumped, cache still live.
	c.Invalidate()
	if c.Len() != 0 {
		t.Fatal("Invalidate left entries behind")
	}
	if c.Epoch() != 1 {
		t.Fatalf("epoch = %d after one event, want 1", c.Epoch())
	}

	// Lookups resume and repopulate; a second event purges again. This is
	// the regression: invalidation happens per failure event, not once.
	c.Route(0, 5)
	if c.Len() != 1 {
		t.Fatal("post-invalidate lookup was not cached")
	}
	c.Invalidate()
	if c.Len() != 0 || c.Epoch() != 2 {
		t.Fatalf("len=%d epoch=%d after second event, want 0/2", c.Len(), c.Epoch())
	}
}

func TestCacheConcurrentReaders(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	c := newTorusCache(tor)
	done := make(chan bool)
	for w := 0; w < 4; w++ {
		go func(seed int) {
			defer func() { done <- true }()
			for i := 0; i < 200; i++ {
				src := torus.NodeID((seed*37 + i) % tor.Size())
				dst := torus.NodeID((seed*91 + i*13) % tor.Size())
				r := c.Route(src, dst)
				want := tor.HopDistance(src, dst)
				if len(r.Links) != want {
					t.Errorf("route %d->%d has %d hops, want %d", src, dst, len(r.Links), want)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// BenchmarkRouteCacheHitMiss quantifies the route cache against the raw
// route walk: "miss" includes the computation plus insertion, "hit" is
// the steady-state per-flow cost inside Engine.Submit.
func BenchmarkRouteCacheHitMiss(b *testing.B) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = DeterministicRoute(tor, src, dst)
		}
	})
	b.Run("miss", func(b *testing.B) {
		b.ReportAllocs()
		c := newTorusCache(tor)
		for i := 0; i < b.N; i++ {
			s := torus.NodeID(i % tor.Size())
			c.Invalidate()
			_ = c.Route(s, dst)
		}
	})
	b.Run("hit", func(b *testing.B) {
		b.ReportAllocs()
		c := newTorusCache(tor)
		c.Route(src, dst)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = c.Route(src, dst)
		}
	})
}

// TestCacheCounts covers the observability counters: hits and misses
// accumulate within one failure epoch, and Invalidate resets them
// (per-epoch hit rates) while counting itself as an invalidation.
func TestCacheCounts(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	c := newTorusCache(tor)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	if h, m, inv := c.Counts(); h != 0 || m != 0 || inv != 0 {
		t.Fatalf("fresh cache counts = (%d,%d,%d), want zeros", h, m, inv)
	}
	c.Route(src, dst)             // miss
	c.Route(src, dst)             // hit
	c.Route(src, dst)             // hit
	c.Route(src, torus.NodeID(3)) // miss
	if h, m, inv := c.Counts(); h != 2 || m != 2 || inv != 0 {
		t.Fatalf("counts = (%d,%d,%d), want (2,2,0)", h, m, inv)
	}

	c.Invalidate()
	if h, m, inv := c.Counts(); h != 0 || m != 0 || inv != 1 {
		t.Fatalf("post-Invalidate counts = (%d,%d,%d), want (0,0,1)", h, m, inv)
	}
	c.Route(src, dst) // cold again: miss
	c.Route(src, dst) // hit
	if h, m, inv := c.Counts(); h != 1 || m != 1 || inv != 1 {
		t.Fatalf("second-epoch counts = (%d,%d,%d), want (1,1,1)", h, m, inv)
	}
}

// TestCacheBound asks a memo for more distinct routes than it stores:
// it holds exactly maxRoutes, serves the oracle's route for every pair,
// stored or not, counts every lookup as a hit or a miss, and refills
// after Invalidate.
func TestCacheBound(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 8, 8, 2})
	c := newTorusCache(tor)
	n := tor.Size()
	const extra = 1000
	pair := func(i int) (torus.NodeID, torus.NodeID) {
		return torus.NodeID(i / n), torus.NodeID(i % n)
	}
	lookups := uint64(0)
	check := func(pass int) {
		for i := 0; i < maxRoutes+extra; i++ {
			src, dst := pair(i)
			got := c.Route(src, dst)
			lookups++
			want := DeterministicRoute(tor, src, dst).Links
			if !slices.Equal(got.Links, want) {
				t.Fatalf("pass %d: route %d->%d = %v, want %v", pass, src, dst, got.Links, want)
			}
			if cap(got.Links) != len(got.Links) {
				t.Fatalf("pass %d: route %d->%d has spare capacity", pass, src, dst)
			}
		}
	}
	check(1)
	if c.Len() != maxRoutes {
		t.Fatalf("memo holds %d routes after %d distinct lookups, want the bound %d", c.Len(), maxRoutes+extra, maxRoutes)
	}
	check(2)
	// The second pass hits every stored route and misses the rest again.
	if h, m, _ := c.Counts(); h != maxRoutes || m != maxRoutes+2*extra || h+m != lookups {
		t.Fatalf("counts = (%d hits, %d misses) over %d lookups, want (%d, %d)", h, m, lookups, maxRoutes, maxRoutes+2*extra)
	}
	if c.Len() != maxRoutes {
		t.Fatalf("memo holds %d routes after the second pass, want %d", c.Len(), maxRoutes)
	}

	c.Invalidate()
	lookups = 0
	check(3)
	if c.Len() != maxRoutes {
		t.Fatalf("memo holds %d routes after Invalidate and a refill, want %d", c.Len(), maxRoutes)
	}
	if h, m, _ := c.Counts(); h != 0 || m != lookups {
		t.Fatalf("post-Invalidate counts = (%d, %d), want (0, %d)", h, m, lookups)
	}
}
