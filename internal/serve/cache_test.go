package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgqflow/internal/scenario"
)

// untracked returns a computation that records no read set, so every
// fault event invalidates its plan.
func untracked(val string) func() ([]byte, *readSet, error) {
	return func() ([]byte, *readSet, error) { return []byte(val), nil, nil }
}

// reading returns a computation whose plan read the failed state of the
// given fault links.
func reading(val string, links ...scenario.FailLink) func() ([]byte, *readSet, error) {
	return func() ([]byte, *readSet, error) {
		rs := &readSet{}
		for _, fl := range links {
			k, _ := faultKey(fl)
			rs.links = append(rs.links, k)
		}
		return []byte(val), rs, nil
	}
}

func TestCacheComputeThenHit(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	compute := func() ([]byte, *readSet, error) { calls++; return []byte("plan"), nil, nil }

	v, err, out := c.Do("k", c.current(), compute)
	if err != nil || string(v) != "plan" || out != outcomeComputed {
		t.Fatalf("first Do: %q %v %v", v, err, out)
	}
	v, err, out = c.Do("k", c.current(), compute)
	if err != nil || string(v) != "plan" || out != outcomeHit {
		t.Fatalf("second Do: %q %v %v", v, err, out)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
}

func TestCacheCoalescesConcurrentCallers(t *testing.T) {
	c := newPlanCache(1, 16)
	started := make(chan struct{})
	release := make(chan struct{})
	var computes atomic.Int64

	go c.Do("k", c.current(), func() ([]byte, *readSet, error) {
		computes.Add(1)
		close(started)
		<-release
		return []byte("plan"), nil, nil
	})
	<-started

	const waiters = 8
	var wg sync.WaitGroup
	var coalesced atomic.Int64
	wg.Add(waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			defer wg.Done()
			v, err, out := c.Do("k", c.current(), func() ([]byte, *readSet, error) {
				computes.Add(1)
				return []byte("other"), nil, nil
			})
			if err != nil || string(v) != "plan" {
				t.Errorf("waiter got %q, %v", v, err)
			}
			if out == outcomeCoalesced {
				coalesced.Add(1)
			}
		}()
	}
	// Give the waiters time to attach to the in-flight entry before the
	// computation finishes. The entry is inserted before compute runs, so
	// the computes==1 assertion holds regardless; the window only makes
	// the coalesced-outcome observation robust.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	if coalesced.Load() == 0 {
		t.Fatalf("no waiter was coalesced")
	}
}

// A plan without a read set is invalidated by every fault event, even
// one that changes no link.
func TestCacheInvalidateHidesOldEntries(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	compute := func() ([]byte, *readSet, error) { calls++; return []byte(fmt.Sprint(calls)), nil, nil }

	c.Do("k", c.current(), compute)
	c.publish(nil, nil)
	v, _, out := c.Do("k", c.current(), compute)
	if out != outcomeComputed || string(v) != "2" {
		t.Fatalf("post-event Do: %q %v (calls %d)", v, out, calls)
	}
}

// TestCacheNoLostInvalidation pins the stamp-and-check discipline: a
// computation that began under the old snapshot and read a link the
// event changes must be invisible to lookups after the event, even
// though it finished after the event.
func TestCacheNoLostInvalidation(t *testing.T) {
	fl := scenario.FailLink{Node: 3, Dim: 1, Dir: 1}
	for _, tc := range []struct {
		name    string
		compute func() ([]byte, *readSet, error)
	}{
		{"untracked", untracked("stale")},
		{"read-the-link", reading("stale", fl)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newPlanCache(1, 16)
			pre := c.current()
			started := make(chan struct{})
			release := make(chan struct{})
			done := make(chan struct{})
			go func() {
				defer close(done)
				c.Do("k", pre, func() ([]byte, *readSet, error) {
					close(started)
					<-release
					return tc.compute()
				})
			}()
			<-started
			c.publish([]scenario.FailLink{fl}, nil) // fault event lands mid-computation
			close(release)
			<-done

			v, _, out := c.Do("k", c.current(), untracked("fresh"))
			if string(v) != "fresh" || out != outcomeComputed {
				t.Fatalf("stale entry served after the event: %q %v", v, out)
			}
		})
	}
}

// A fault event invalidates only the plans that read a link it changed.
func TestCacheScopedInvalidation(t *testing.T) {
	read := scenario.FailLink{Node: 5, Dim: 4, Dir: 1}
	other := scenario.FailLink{Node: 9, Dim: 4, Dir: 1}
	c := newPlanCache(1, 16)
	c.Do("k", c.current(), reading("v1", read))

	c.publish([]scenario.FailLink{other}, nil)
	if v, _, out := c.Do("k", c.current(), reading("v2", read)); out != outcomeHit || string(v) != "v1" {
		t.Fatalf("event on an unread link evicted the plan: %q %v", v, out)
	}
	c.publish([]scenario.FailLink{other, read}, nil)
	if v, _, out := c.Do("k", c.current(), reading("v3", read)); out != outcomeComputed || string(v) != "v3" {
		t.Fatalf("event on a read link left the plan servable: %q %v", v, out)
	}
	// A repair changes the repaired links: clearing both invalidates
	// the epoch-2 plan, which read one of them.
	c.publish(nil, nil)
	if v, _, out := c.Do("k", c.current(), reading("v4", read)); out != outcomeComputed || string(v) != "v4" {
		t.Fatalf("clear left a plan over a repaired link servable: %q %v", v, out)
	}
}

// A plan stored under a newer snapshot must not answer a request that
// still plans against an older one when the event between them changed
// a link the plan read; and the straggling request must not displace
// the newer entry.
func TestCacheNewerEntryNotServedToOlderSnapshot(t *testing.T) {
	fl := scenario.FailLink{Node: 2, Dim: 0, Dir: -1}
	c := newPlanCache(1, 16)
	snap0 := c.current()
	snap1 := c.publish([]scenario.FailLink{fl}, nil)
	if snap0.epoch != 0 || snap1.epoch != 1 {
		t.Fatalf("epochs %d, %d, want 0 and 1", snap0.epoch, snap1.epoch)
	}
	if _, _, out := c.Do("k", snap1, reading("faulted", fl)); out != outcomeComputed {
		t.Fatalf("epoch-1 fill: %v", out)
	}
	v, _, out := c.Do("k", snap0, reading("unfaulted", fl))
	if out != outcomeComputed || string(v) != "unfaulted" {
		t.Fatalf("epoch-0 request served the epoch-1 plan: %q %v", v, out)
	}
	if v, _, out := c.Do("k", snap1, reading("again", fl)); out != outcomeHit || string(v) != "faulted" {
		t.Fatalf("older request displaced the newer entry: %q %v", v, out)
	}
	// Across an event that changed nothing the plan read, the newer plan
	// does answer the older snapshot.
	c2 := newPlanCache(1, 16)
	old := c2.current()
	c2.Do("k", c2.publish([]scenario.FailLink{fl}, nil), reading("plan", scenario.FailLink{Node: 7, Dim: 0, Dir: 1}))
	if v, _, out := c2.Do("k", old, untracked("recomputed")); out != outcomeHit || string(v) != "plan" {
		t.Fatalf("unaffected newer plan not served to the older snapshot: %q %v", v, out)
	}
}

// The emptiness read: a plan that asked whether its torus has any failed
// link stays servable while the answer under the requesting snapshot is
// unchanged, and is recomputed when it flips.
func TestCacheEmptinessRead(t *testing.T) {
	const size, dims = 128, 5 // a 2x2x4x4x2 torus
	c := newPlanCache(1, 16)
	asked := func(val string) func() ([]byte, *readSet, error) {
		return func() ([]byte, *readSet, error) {
			return []byte(val), &readSet{askedAny: true, anyFailed: c.current().anyApplicable(size, dims), size: size, dims: dims}, nil
		}
	}
	c.Do("k", c.current(), asked("empty"))
	// A fault on a node outside the torus does not apply to it.
	far := scenario.FailLink{Node: 500, Dim: 0, Dir: 1}
	c.publish([]scenario.FailLink{far}, nil)
	if v, _, out := c.Do("k", c.current(), asked("x")); out != outcomeHit || string(v) != "empty" {
		t.Fatalf("inapplicable fault flipped the emptiness read: %q %v", v, out)
	}
	// Nor does one in a dimension the torus lacks.
	c.publish([]scenario.FailLink{far, {Node: 1, Dim: 6, Dir: 1}}, nil)
	if _, _, out := c.Do("k", c.current(), asked("x")); out != outcomeHit {
		t.Fatalf("fault in a missing dimension flipped the emptiness read: %v", out)
	}
	c.publish([]scenario.FailLink{far, {Node: 127, Dim: 4, Dir: -1}}, nil)
	if v, _, out := c.Do("k", c.current(), asked("nonempty")); out != outcomeComputed || string(v) != "nonempty" {
		t.Fatalf("applicable fault left the emptiness read servable: %q %v", v, out)
	}
}

func TestCacheErrorsNotCached(t *testing.T) {
	c := newPlanCache(4, 16)
	calls := 0
	c.Do("k", c.current(), func() ([]byte, *readSet, error) { calls++; return nil, nil, fmt.Errorf("boom") })
	v, err, _ := c.Do("k", c.current(), func() ([]byte, *readSet, error) { calls++; return []byte("ok"), nil, nil })
	if err != nil || string(v) != "ok" || calls != 2 {
		t.Fatalf("retry after error: %q %v calls=%d", v, err, calls)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1 (failed entry evicted)", c.Len())
	}
}

func TestCacheShardOverflowEvicts(t *testing.T) {
	c := newPlanCache(1, 4)
	for i := 0; i < 32; i++ {
		c.Do(fmt.Sprintf("k%d", i), c.current(), untracked("x"))
	}
	if n := c.Len(); n > 5 {
		t.Fatalf("shard grew to %d entries, cap 4 (+1 in flight)", n)
	}
}
