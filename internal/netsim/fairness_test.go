package netsim

import (
	"math/rand"
	"testing"

	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// The max-min fairness invariants, audited at every reallocation sweep of
// randomized runs:
//
//  1. feasibility: on every link, the rates of the flows crossing it sum
//     to at most the link capacity;
//  2. bottleneck: every active flow either runs at its endpoint cap or
//     crosses at least one saturated link;
//  3. max-min: on some saturated link of its route, the flow's rate is
//     the maximum among the link's flows (nobody could give it more
//     without taking from an equal-or-slower flow).
func TestMaxMinInvariantsUnderRandomLoad(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	for trial := 0; trial < 6; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 997))
		p := DefaultParams()
		net := NewNetwork(tor, p.LinkBandwidth)
		e, err := NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		n := rng.Intn(150) + 30
		var ids []FlowID
		for i := 0; i < n; i++ {
			var deps []FlowID
			if len(ids) > 0 && rng.Intn(3) == 0 {
				deps = append(deps, ids[rng.Intn(len(ids))])
			}
			ids = append(ids, e.Submit(FlowSpec{
				Src:       torus.NodeID(rng.Intn(tor.Size())),
				Dst:       torus.NodeID(rng.Intn(tor.Size())),
				Bytes:     int64(rng.Intn(4<<20) + 1),
				DependsOn: deps,
			}))
		}

		const relEps = 1e-6
		audits := 0
		e.SetSink(hookSink{sweep: func(now sim.Time) {
			audits++
			active := e.ActiveFlowIDs()
			// Per-link rate sums.
			linkSum := make(map[int]float64)
			linkMax := make(map[int]float64)
			for _, id := range active {
				r, ok := e.FlowRate(id)
				if !ok {
					t.Fatal("inactive flow listed active")
				}
				for _, l := range e.FlowRouteLinks(id) {
					linkSum[l] += r
					if r > linkMax[l] {
						linkMax[l] = r
					}
				}
			}
			for l, s := range linkSum {
				if cap := net.Capacity(l); s > cap*(1+relEps) {
					t.Fatalf("link %d oversubscribed: %g > %g", l, s, cap)
				}
			}
			for _, id := range active {
				r, _ := e.FlowRate(id)
				if r >= e.FlowRateCap(id)*(1-relEps) {
					continue // bottlenecked at the endpoint cap
				}
				links := e.FlowRouteLinks(id)
				if len(links) == 0 {
					t.Fatalf("linkless flow %d below its cap", id)
				}
				bottlenecked := false
				for _, l := range links {
					saturated := linkSum[l] >= net.Capacity(l)*(1-relEps)
					if saturated && r >= linkMax[l]*(1-relEps) {
						bottlenecked = true
						break
					}
				}
				if !bottlenecked {
					t.Fatalf("flow %d at rate %g has no bottleneck (cap %g)", id, r, e.FlowRateCap(id))
				}
			}
		}})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if audits == 0 {
			t.Fatal("observer never ran")
		}
	}
}
