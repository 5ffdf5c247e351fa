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
	Simulate(context.Context, scenario.Config) (serve.PlanResult, error)
	Fault(context.Context, serve.FaultEvent) (uint64, error)
}

// scopedReq is one request of the differential's pool.
type scopedReq struct {
	pair  *serve.PairRequest
	group *serve.GroupRequest
	agg   *serve.AggRequest
	sim   *scenario.Config
}

func (q scopedReq) String() string {
	switch {
	case q.pair != nil:
		return fmt.Sprintf("pair %+v", *q.pair)
	case q.group != nil:
		return fmt.Sprintf("group %+v", *q.group)
	case q.sim != nil:
		b, _ := json.Marshal(q.sim)
		return "sim " + string(b)
	}
	return fmt.Sprintf("agg %+v", *q.agg)
}

func (q scopedReq) serve(ctx context.Context, svc planService) (serve.PlanResult, error) {
	switch {
	case q.pair != nil:
		return svc.PlanPair(ctx, *q.pair)
	case q.group != nil:
		return svc.PlanGroup(ctx, *q.group)
	case q.sim != nil:
		return svc.Simulate(ctx, *q.sim)
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
	case q.sim != nil:
		plan, err = serve.ComputeSim(*q.sim, faults)
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
	return append(pool, simPool()...)
}

// simPool is a fixed mix of simulate requests: every plan kind a
// scenario builds, with and without its own faults and campaigns.
func simPool() []scopedReq {
	pair := func(src, dst int, bytes int64, proxies int) *scenario.TransferConfig {
		return &scenario.TransferConfig{Kind: "pair", Src: src, Dst: dst, Bytes: bytes, Proxies: proxies}
	}
	group := &scenario.TransferConfig{Kind: "group", Bytes: 1 << 20,
		SrcOrigin: []int{0, 0, 0, 0, 0}, SrcExtent: []int{2, 2, 2, 1, 1},
		DstOrigin: []int{0, 0, 2, 2, 1}, DstExtent: []int{2, 2, 2, 1, 1}}
	burst := func(approach string) *scenario.IOConfig {
		return &scenario.IOConfig{Workload: "pattern2", MaxBytes: 1 << 20, Approach: approach}
	}
	var pool []scopedReq
	for _, c := range []scenario.Config{
		{Transfer: pair(0, 97, 4<<20, 0)},
		{Transfer: pair(3, 64, 2<<20, -1)},
		{Transfer: pair(5, 122, 4<<20, 3)},
		{Transfer: pair(0, 127, 4<<20, 0), FailLinks: []scenario.FailLink{{Node: 0, Dim: 2, Dir: -1}}},
		{Transfer: pair(0, 127, 8<<20, 0), FaultCampaign: &scenario.FaultCampaignConfig{Kind: "burst", Seed: 5, Count: 3, AtMS: 0.5}},
		{Transfer: group},
		{Transfer: group, FaultCampaign: &scenario.FaultCampaignConfig{Kind: "uniform", Seed: 2, Count: 4, WindowMS: 1}},
		{Seed: 3, RanksPerNode: 4, IO: burst("topology-aware")},
		{Seed: 4, RanksPerNode: 4, IO: burst("collective-io")},
		{Seed: 5, RanksPerNode: 4, IO: burst("topology-aware"),
			FaultCampaign: &scenario.FaultCampaignConfig{Kind: "nodes", Seed: 6, Count: 2, WindowMS: 2}},
		{Topology: "dragonfly:4x4x2", Transfer: pair(1, 9, 4<<20, 0)},
	} {
		c := c
		c.Shape = testShape
		pool = append(pool, scopedReq{sim: &c})
	}
	return pool
}

// scopedStats counts a differential run's cache hits, and the hits
// served across a fault event: the entry was computed before the latest
// event the client saw.
type scopedStats struct {
	hits, crossed       int
	simHits, simCrossed int
}

// runScopedDifferential drives seeds requests from the pool through svc
// with fault events (adds, repairs, and repairs that re-add) between
// them, comparing every response with the oracle under the fault set the
// client has seen acknowledged.
func runScopedDifferential(t *testing.T, svc planService, seeds int, seed int64) (st scopedStats) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	pool := scopedPool(rng)
	const size = 2 * 2 * 4 * 4 * 2
	var faults []scenario.FailLink // client-side mirror of the fault set
	events := 0
	computedAt := make([]int, len(pool)) // events seen when each request was last computed
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
			events++
		}
		qi := rng.Intn(len(pool))
		q := pool[qi]
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
		if !res.Cached {
			computedAt[qi] = events
			continue
		}
		cross := computedAt[qi] < events
		st.hits++
		if cross {
			st.crossed++
		}
		if q.sim != nil {
			st.simHits++
			if cross {
				st.simCrossed++
			}
		}
	}
	return st
}

// TestScopedDifferential200Seeds is the scoped-invalidation gate: 400
// seeded pair, group, agg and simulate requests with fault adds and
// repairs between them, through a standalone daemon and through a
// 3-replica ring. Every response must be byte-identical to a direct
// Compute call under its own snapshot's fault set — hits included, and
// hits, sims among them, must happen across fault events.
func TestScopedDifferential200Seeds(t *testing.T) {
	const seeds = 400
	check := func(t *testing.T, st scopedStats) {
		t.Helper()
		if st.crossed == 0 || st.simCrossed == 0 {
			t.Fatalf("no cache hits across fault events: %+v", st)
		}
		t.Logf("%d hits of %d requests, %d across fault events; sims: %d hits, %d across fault events",
			st.hits, seeds, st.crossed, st.simHits, st.simCrossed)
	}
	t.Run("standalone", func(t *testing.T) {
		_, client := newTestDaemon(t, serve.Config{})
		check(t, runScopedDifferential(t, client, seeds, 11))
	})
	t.Run("ring", func(t *testing.T) {
		tc := newTestCluster(t, 3, nil)
		check(t, runScopedDifferential(t, tc.ring, seeds, 12))
		if n := tc.ring.StaleServed(); n != 0 {
			t.Fatalf("stale_served = %d, want 0", n)
		}
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

// cRingCut fails both C-ring directions out of every node with C
// coordinate 0 on testShape: senders there cannot leave along C at all.
func cRingCut() []scenario.FailLink {
	var links []scenario.FailLink
	for n := 0; n < 2*2*4*4*2; n++ {
		if (n/(2*2))%4 == 0 {
			links = append(links, scenario.FailLink{Node: n, Dim: 2, Dir: 1}, scenario.FailLink{Node: n, Dim: 2, Dir: -1})
		}
	}
	return links
}

// An agg plan whose gather or write leg has no minimal route left fails
// with 400 instead of submitting the cut route to the engine.
func TestE2EAggUnderCutFaultsDoesNotCrash(t *testing.T) {
	_, client := newTestDaemon(t, serve.Config{})
	ctx := context.Background()
	if _, err := client.Fault(ctx, serve.FaultEvent{Links: cRingCut()}); err != nil {
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
