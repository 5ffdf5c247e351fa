package serve_test

// Link-scoped plan-cache invalidation (DESIGN.md §12): a fault event
// invalidates only the cached plans that read the failed state of a
// link it changed. These tests pin the two halves — every served plan,
// hit or computed, is byte-identical to a direct planner call under the
// fault set of its own snapshot, and a fault on a link a plan never read
// leaves the plan cached — plus plans under faults that cut their
// routes, which must fail cleanly rather than crash the daemon.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"bgqflow/internal/scenario"
	"bgqflow/internal/serve"
	"bgqflow/internal/torus"
)

// planService is what the differential drives: a standalone daemon's
// Client or a cluster's RingClient.
type planService interface {
	PlanPair(context.Context, serve.PairRequest) (serve.PlanResult, error)
	PlanGroup(context.Context, serve.GroupRequest) (serve.PlanResult, error)
	PlanAgg(context.Context, serve.AggRequest) (serve.PlanResult, error)
	Fault(context.Context, serve.FaultEvent) (uint64, error)
}

// scopedReq is one request of the differential's pool.
type scopedReq struct {
	pair  *serve.PairRequest
	group *serve.GroupRequest
	agg   *serve.AggRequest
}

func (q scopedReq) String() string {
	switch {
	case q.pair != nil:
		return fmt.Sprintf("pair %+v", *q.pair)
	case q.group != nil:
		return fmt.Sprintf("group %+v", *q.group)
	}
	return fmt.Sprintf("agg %+v", *q.agg)
}

func (q scopedReq) serve(ctx context.Context, svc planService) (serve.PlanResult, error) {
	switch {
	case q.pair != nil:
		return svc.PlanPair(ctx, *q.pair)
	case q.group != nil:
		return svc.PlanGroup(ctx, *q.group)
	}
	return svc.PlanAgg(ctx, *q.agg)
}

// direct is the oracle: the exported Compute function under faults.
func (q scopedReq) direct(faults []scenario.FailLink) ([]byte, error) {
	var (
		plan any
		err  error
	)
	switch {
	case q.pair != nil:
		plan, err = serve.ComputePair(*q.pair, faults)
	case q.group != nil:
		plan, err = serve.ComputeGroup(*q.group, faults)
	default:
		plan, err = serve.ComputeAgg(*q.agg, faults)
	}
	if err != nil {
		return nil, err
	}
	return json.Marshal(plan)
}

// scopedPool is a small fixed request mix, so requests repeat across
// fault events and the cache has plans to keep or drop.
func scopedPool(rng *rand.Rand) []scopedReq {
	const size = 2 * 2 * 4 * 4 * 2
	var pool []scopedReq
	for i := 0; i < 12; i++ {
		src := rng.Intn(size)
		dst := (src + 1 + rng.Intn(size-1)) % size
		pool = append(pool, scopedReq{pair: &serve.PairRequest{
			Shape: testShape, Src: src, Dst: dst,
			Bytes:   int64(1+rng.Intn(8)) << 19,
			Proxies: []int{-1, 0, 2}[i%3],
		}})
	}
	for _, g := range []serve.GroupRequest{
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1}, DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}, Bytes: 2 << 20},
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 1, 1, 1}, DstOrigin: []int{0, 0, 2, 3, 0}, DstExtent: []int{2, 2, 1, 1, 1}, Bytes: 256 << 10},
		{SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1}, DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}, Bytes: 2 << 20, Proxies: 3},
	} {
		g.Shape = testShape
		pool = append(pool, scopedReq{group: &g})
	}
	for _, a := range []serve.AggRequest{
		{Workload: "pattern2", MaxBytes: 1 << 20, Seed: 3},
		{Workload: "pattern1", MaxBytes: 1 << 20, Seed: 4},
	} {
		a.Shape = testShape
		if err := a.Validate(); err != nil {
			panic(err)
		}
		pool = append(pool, scopedReq{agg: &a})
	}
	return pool
}

// runScopedDifferential drives seeds requests from the pool through svc
// with fault events (adds, repairs, and repairs that re-add) between
// them, comparing every response with the oracle under the fault set the
// client has seen acknowledged. It returns how many responses were
// cache hits.
func runScopedDifferential(t *testing.T, svc planService, seeds int, seed int64) (hits int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	pool := scopedPool(rng)
	const size = 2 * 2 * 4 * 4 * 2
	var faults []scenario.FailLink // client-side mirror of the fault set
	for s := 0; s < seeds; s++ {
		if s > 0 && s%4 == 0 {
			ev := serve.FaultEvent{}
			switch {
			case len(faults) >= 3 && rng.Intn(2) == 0:
				ev.Clear = true
			case len(faults) >= 3:
				// A repair that re-fails one of the old links: only the
				// others change.
				ev.Clear = true
				ev.Links = []scenario.FailLink{faults[rng.Intn(len(faults))]}
			default:
				ev.Links = []scenario.FailLink{{Node: rng.Intn(size), Dim: rng.Intn(5), Dir: 1 - 2*rng.Intn(2)}}
			}
			if _, err := svc.Fault(ctx, ev); err != nil {
				t.Fatalf("seed %d: fault %+v: %v", s, ev, err)
			}
			if ev.Clear {
				faults = nil
			}
			faults = append(faults, ev.Links...)
		}
		q := pool[rng.Intn(len(pool))]
		res, err := q.serve(ctx, svc)
		if err != nil {
			t.Fatalf("seed %d: %s: %v", s, q, err)
		}
		want, werr := q.direct(faults)
		if werr != nil {
			if res.Status != 400 {
				t.Fatalf("seed %d: %s: direct call fails (%v) but the daemon answered %d", s, q, werr, res.Status)
			}
			continue
		}
		if !res.OK() {
			t.Fatalf("seed %d: %s: status %d: %s", s, q, res.Status, res.Err)
		}
		if !bytes.Equal(res.Plan, want) {
			t.Fatalf("seed %d (%d faults, cached %v): %s: served plan differs from a direct call under its snapshot's faults\nserved: %s\ndirect: %s",
				s, len(faults), res.Cached, q, res.Plan, want)
		}
		if res.Cached {
			hits++
		}
	}
	return hits
}

// TestScopedDifferential200Seeds is the scoped-invalidation gate: 240
// seeded pair, group and agg requests with fault adds and repairs
// between them, through a standalone daemon and through a 3-replica
// ring. Every response must be byte-identical to a direct Compute call
// under its own snapshot's fault set — hits included, and hits must
// happen across fault events.
func TestScopedDifferential200Seeds(t *testing.T) {
	const seeds = 240
	t.Run("standalone", func(t *testing.T) {
		srv, client := newTestDaemon(t, serve.Config{})
		hits := runScopedDifferential(t, client, seeds, 11)
		if hits == 0 {
			t.Fatal("no cache hits across fault events")
		}
		t.Logf("%d hits of %d requests, final epoch %d", hits, seeds, srv.Epoch())
	})
	t.Run("ring", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		hits := runScopedDifferential(t, tc.ring, seeds, 12)
		if hits == 0 {
			t.Fatal("no cache hits across fault events")
		}
		if n := tc.ring.StaleServed(); n != 0 {
			t.Fatalf("stale_served = %d, want 0", n)
		}
		t.Logf("%d hits of %d requests", hits, seeds)
	})
}

// A fault on a link a cached plan never read leaves it cached; a fault
// on a link it read forces a recompute. A direct-mode pair plan reads
// exactly the links of its route.
func TestScopedInvalidationKeepsUnreadPlans(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	req := serve.PairRequest{Shape: testShape, Src: 0, Dst: 97, Bytes: 4 << 20, Proxies: -1}
	res, err := client.PlanPair(ctx, req)
	if err != nil || !res.OK() {
		t.Fatalf("first plan: %v status %d", err, res.Status)
	}
	var plan serve.PairPlan
	if err := json.Unmarshal(res.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	route := map[int]bool{}
	for _, l := range plan.Flows[0].Links {
		route[l] = true
	}
	// The +A link of the first node whose +A link is off the route.
	var unread scenario.FailLink
	for n := 0; ; n++ {
		fl := scenario.FailLink{Node: n, Dim: 0, Dir: 1}
		if !route[linkID(fl)] {
			unread = fl
			break
		}
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{unread}}); err != nil {
		t.Fatal(err)
	}
	res2, err := client.PlanPair(ctx, req)
	if err != nil || !res2.OK() {
		t.Fatalf("after unread fault: %v status %d", err, res2.Status)
	}
	if !res2.Cached || !bytes.Equal(res2.Plan, res.Plan) {
		t.Fatalf("fault on unread link %+v: cached %v, same plan %v", unread, res2.Cached, bytes.Equal(res2.Plan, res.Plan))
	}

	read, ok := linkToFail(t, testShape, plan.Flows[0].Links[0])
	if !ok {
		t.Fatal("cannot invert the route's first link")
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: []scenario.FailLink{read}}); err != nil {
		t.Fatal(err)
	}
	res3, err := client.PlanPair(ctx, req)
	if err != nil || !res3.OK() {
		t.Fatalf("after read fault: %v status %d", err, res3.Status)
	}
	if res3.Cached || res3.Coalesced {
		t.Fatalf("fault on read link %+v left the plan cached", read)
	}
	want, err := serve.ComputePair(req, []scenario.FailLink{unread, read})
	if err != nil {
		t.Fatal(err)
	}
	if wb, _ := json.Marshal(want); !bytes.Equal(res3.Plan, wb) {
		t.Fatalf("recomputed plan differs from a direct call\nserved: %s\ndirect: %s", res3.Plan, wb)
	}
}

// linkID is the netsim link ID of a fault event link on testShape.
func linkID(fl scenario.FailLink) int {
	dir := torus.Plus
	if fl.Dir == -1 {
		dir = torus.Minus
	}
	return torus.MustNew(torus.Shape{2, 2, 4, 4, 2}).LinkID(torus.NodeID(fl.Node), fl.Dim, dir)
}

// A group plan over a faulted link routes around it or fails with 400;
// it must not submit the cut route, which the engine's fail-stop check
// turns into a panic in a dispatcher worker that kills the daemon.
func TestE2EGroupUnderFaultDoesNotCrash(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	for _, proxies := range []int{-1, 0, 3} {
		req := serve.GroupRequest{
			Shape:     testShape,
			SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1},
			DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1},
			Bytes: 2 << 20, Proxies: proxies,
		}
		res, err := client.PlanGroup(ctx, req)
		if err != nil || !res.OK() {
			t.Fatalf("proxies %d: unfaulted plan: %v status %d", proxies, err, res.Status)
		}
		var plan serve.GroupPlan
		if err := json.Unmarshal(res.Plan, &plan); err != nil {
			t.Fatal(err)
		}
		target := plan.FlowSpecs[0].Links[0]
		fl, ok := linkToFail(t, testShape, target)
		if !ok {
			t.Fatalf("cannot invert link %d", target)
		}
		if _, err := client.Fault(ctx, serve.FaultEvent{Clear: true, Links: []scenario.FailLink{fl}}); err != nil {
			t.Fatal(err)
		}
		res, err = client.PlanGroup(ctx, req)
		if err != nil {
			t.Fatalf("proxies %d: faulted plan: %v", proxies, err)
		}
		switch res.Status {
		case 200:
			var post serve.GroupPlan
			if err := json.Unmarshal(res.Plan, &post); err != nil {
				t.Fatal(err)
			}
			for _, f := range post.FlowSpecs {
				for _, l := range f.Links {
					if l == target {
						t.Fatalf("proxies %d: faulted plan still routes over link %d", proxies, target)
					}
				}
			}
		case 400:
		default:
			t.Fatalf("proxies %d: faulted plan: status %d: %s", proxies, res.Status, res.Err)
		}
		if err := client.Health(ctx); err != nil {
			t.Fatalf("proxies %d: daemon unhealthy after a faulted group plan: %v", proxies, err)
		}
	}
}

// An agg plan whose gather or write leg has no minimal route left fails
// with 400 instead of submitting the cut route to the engine.
func TestE2EAggUnderCutFaultsDoesNotCrash(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	// Fail both C-ring directions out of every node with C coordinate 0:
	// senders there cannot leave along C at all.
	var links []scenario.FailLink
	for n := 0; n < 2*2*4*4*2; n++ {
		if (n/(2*2))%4 == 0 {
			links = append(links, scenario.FailLink{Node: n, Dim: 2, Dir: 1}, scenario.FailLink{Node: n, Dim: 2, Dir: -1})
		}
	}
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: links}); err != nil {
		t.Fatal(err)
	}
	req := serve.AggRequest{Shape: testShape, Workload: "dense", MaxBytes: 1 << 20}
	res, err := client.PlanAgg(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 && res.Status != 400 {
		t.Fatalf("agg plan under cut faults: status %d: %s", res.Status, res.Err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("daemon unhealthy after an agg plan under cut faults: %v", err)
	}
}
