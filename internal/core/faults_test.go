package core

import (
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// Failure injection: the planner must route transfers around the failed
// links of the engine's network, both for the direct fallback and for
// proxy legs.

func TestDirectPlanAvoidsFailedLink(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	net.FailLink(def.Links[1])

	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	plan, err := pl.PlanPair(e, src, dst, 64<<10) // below threshold: direct
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != Direct {
		t.Fatalf("mode %v", plan.Mode)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !e.Result(plan.Final[0]).Done {
		t.Fatal("direct transfer did not complete around the failure")
	}
}

func TestUnawarePlannerTripsOnFailedLink(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	net.FailLink(def.Links[1])
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("submitting over a failed link did not panic")
		}
	}()
	e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: 1 << 20})
}

func TestProxySelectionAvoidsFailedLegs(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	healthy := pl.SelectProxies(src, dst)
	if len(healthy) < 4 {
		t.Fatalf("healthy selection found %d", len(healthy))
	}
	// Fail the first hop of the first proxy's leg1.
	net.FailLink(healthy[0].Leg1.Links[0])
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.PlanPair(e, src, dst, 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	after := plan.Proxies
	for _, pr := range after {
		for _, leg := range [][]int{pr.Leg1.Links, pr.Leg2.Links} {
			for _, l := range leg {
				if net.LinkFailed(l) {
					t.Fatal("selected proxy leg crosses a failed link")
				}
			}
		}
	}
	if len(after) == 0 {
		t.Fatal("no proxies found despite a single failure")
	}
}

func TestProxiedTransferSurvivesFailures(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	// Fail three arbitrary links near the source.
	net.FailLink(tor.LinkID(src, 2, torus.Plus))
	net.FailLink(tor.LinkID(src, 3, torus.Minus))
	net.FailLink(tor.LinkID(tor.Neighbor(src, 1, torus.Plus), 2, torus.Minus))

	cfg := DefaultProxyConfig()
	pl, _ := NewPairPlanner(tor, cfg)
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 32 << 20
	plan, err := pl.PlanPair(e, src, dst, bytes)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	th := netsim.Throughput(bytes, mk)
	if plan.Mode == Proxied && th < 1.6e9 {
		t.Fatalf("degraded throughput %.3g with failures and %d proxies", th, len(plan.Proxies))
	}
	var arrived int64
	for _, id := range plan.Final {
		arrived += e.Result(id).Bytes
	}
	if arrived != bytes {
		t.Fatalf("arrived %d of %d", arrived, bytes)
	}
}

// TestNoRouteTraversesFailedNode is the node-failure property test: after
// FailNode, no fault-avoiding route — direct fallback or a proxy leg
// PlanPair picks — may touch the dead node or any failed link, across a
// spread of endpoint pairs. (Default routes are failure-blind by design;
// the submit layer fail-stops them, which
// TestUnawarePlannerTripsOnFailedLink pins.)
func TestNoRouteTraversesFailedNode(t *testing.T) {
	tor := mira128()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	dead := torus.NodeID(37)
	net.FailNode(dead)

	nodeOnRoute := func(links []int) bool {
		for _, l := range links {
			from, _, _ := tor.LinkFrom(l)
			if from == dead {
				return true
			}
			if net.LinkFailed(l) {
				return true
			}
		}
		return false
	}

	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	for _, src := range []torus.NodeID{0, 3, 50, 101} {
		for _, dst := range []torus.NodeID{1, 64, 90, torus.NodeID(tor.Size() - 1)} {
			if src == dst || src == dead || dst == dead {
				continue
			}
			r, err := net.RouteAvoiding(src, dst)
			if err != nil {
				// A minimal dimension-ordered detour may not exist for
				// every pair; that is the planner's cue to go proxied.
				continue
			}
			if nodeOnRoute(r.Links) {
				t.Fatalf("avoiding route %d->%d traverses the failed node", src, dst)
			}
			e, err := netsim.NewEngine(net, p)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pl.PlanPair(e, src, dst, 32<<20)
			if err != nil {
				t.Fatalf("%d->%d: %v", src, dst, err)
			}
			for _, pr := range plan.Proxies {
				if pr.Proxy == dead {
					t.Fatalf("selection %d->%d picked the failed node as proxy", src, dst)
				}
				if nodeOnRoute(pr.Leg1.Links) || nodeOnRoute(pr.Leg2.Links) {
					t.Fatalf("proxy leg %d->%d traverses the failed node", src, dst)
				}
			}
		}
	}
}

func TestDirectPlanErrorsWhenCut(t *testing.T) {
	// 1-D ring: fail both directions out of the source; no route exists.
	tor := torus.MustNew(torus.Shape{8})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	net.FailLink(tor.LinkID(0, 0, torus.Plus))
	net.FailLink(tor.LinkID(0, 0, torus.Minus))
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	e, _ := netsim.NewEngine(net, p)
	if _, err := pl.PlanPair(e, 0, 1, 1<<10); err == nil {
		t.Fatal("cut topology accepted")
	}
}

// With fewer than minProxies disjoint paths left, the operating point
// goes direct, while a forced count proxies over the paths it finds.
func TestPlanPairNeedsThreeDisjointPaths(t *testing.T) {
	tor := mira128()
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	healthy := selectProxies(tor, src, dst, DefaultProxyConfig(), nil)
	if len(healthy) < minProxies {
		t.Fatalf("only %d proxies on a healthy torus", len(healthy))
	}
	plan := func(cfg ProxyConfig) PairPlan {
		t.Helper()
		p := netsim.DefaultParams()
		net := netsim.NewNetwork(tor, p.LinkBandwidth)
		// Every candidate's first leg is one hop out of the source:
		// failing it leaves minProxies-1 candidates.
		for _, pr := range healthy[minProxies-1:] {
			net.FailLink(pr.Leg1.Links[0])
		}
		e, err := netsim.NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		pl, err := NewPairPlanner(tor, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := pl.PlanPair(e, src, dst, 64<<20)
		if err != nil {
			t.Fatal(err)
		}
		return plan
	}
	if got := plan(DefaultProxyConfig()); got.Mode != Direct {
		t.Fatalf("operating point with %d paths planned %v over %d proxies", minProxies-1, got.Mode, len(got.Proxies))
	}
	if got := plan(ProxyConfig{Proxies: 4}); got.Mode != Proxied || len(got.Proxies) != minProxies-1 {
		t.Fatalf("forced 4 with %d paths planned %v over %d proxies", minProxies-1, got.Mode, len(got.Proxies))
	}
}
