package core

import (
	"reflect"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// planGroupFlows plans one group transfer on a network with the given
// links failed and returns every submitted flow's route. withPred
// installs the network's fault predicate on the planner.
func planGroupFlows(t *testing.T, tor *torus.Torus, s, d torus.Box, bytes int64, force int, failed []int, withPred bool) ([][]int, error) {
	t.Helper()
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	for _, l := range failed {
		net.FailLink(l)
	}
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	gp, err := NewGroupPlanner(tor, DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	gp.ForceGroups = force
	if withPred {
		gp.SetFaults(net.FailedFunc())
	}
	if _, err := gp.Plan(e, s, d, bytes); err != nil {
		return nil, err
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	routes := make([][]int, e.NumFlows())
	for id := range routes {
		routes[id] = e.FlowRouteLinks(netsim.FlowID(id))
	}
	return routes, nil
}

// Installing the predicate on a fault-free network changes no route:
// RouteAvoiding and the fault-aware leg search try the default route
// first.
func TestGroupFaultPredicateFaultFreeIdentity(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	s, _ := torus.NewBox(tor, []int{0, 0, 0, 0, 0}, []int{2, 2, 2, 1, 1})
	d, _ := torus.NewBox(tor, []int{0, 0, 2, 2, 1}, []int{2, 2, 2, 1, 1})
	for _, c := range []struct {
		bytes int64
		force int
	}{{64 << 10, 0}, {2 << 20, 0}, {2 << 20, 3}} {
		plain, err := planGroupFlows(t, tor, s, d, c.bytes, c.force, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := planGroupFlows(t, tor, s, d, c.bytes, c.force, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, pred) {
			t.Fatalf("bytes %d force %d: predicate changed fault-free routes", c.bytes, c.force)
		}
	}
}

// With the predicate every flow of a group plan avoids the failed
// links, whether the plan goes direct or proxied; without it the
// default route reaches Submit and the engine's fail-stop check panics.
func TestGroupPlanRoutesAroundFailedLinks(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	s, _ := torus.NewBox(tor, []int{0, 0, 0, 0, 0}, []int{2, 2, 2, 1, 1})
	d, _ := torus.NewBox(tor, []int{0, 0, 2, 2, 1}, []int{2, 2, 2, 1, 1})
	for _, c := range []struct {
		bytes int64
		force int
	}{{64 << 10, 0}, {2 << 20, 0}, {2 << 20, 3}} {
		clean, err := planGroupFlows(t, tor, s, d, c.bytes, c.force, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		// Fail the first link of the first routed flow, then the first
		// link of the next plan's first routed flow: two faults, each on
		// a route the planner would otherwise take.
		var failed []int
		routes := clean
		for k := 0; k < 2; k++ {
			for _, r := range routes {
				if len(r) > 0 {
					failed = append(failed, r[0])
					break
				}
			}
			routes, err = planGroupFlows(t, tor, s, d, c.bytes, c.force, failed, true)
			if err != nil {
				t.Fatalf("bytes %d force %d failed %v: %v", c.bytes, c.force, failed, err)
			}
			for id, r := range routes {
				for _, l := range r {
					for _, f := range failed {
						if l == f {
							t.Fatalf("bytes %d force %d: flow %d routed over failed link %d", c.bytes, c.force, id, l)
						}
					}
				}
			}
		}
	}
}

// When no minimal route survives for a direct pair, Plan returns an
// error instead of submitting a route the engine would reject.
func TestGroupPlanErrorsWhenDirectPathCut(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	s, _ := torus.NewBox(tor, []int{0, 0, 0, 0, 0}, []int{1, 1, 1, 1, 1})
	d, _ := torus.NewBox(tor, []int{0, 0, 1, 0, 0}, []int{1, 1, 1, 1, 1})
	// The pair is one C hop apart; failing both ring directions out of
	// the source leaves no minimal route.
	failed := []int{tor.LinkID(0, 2, torus.Plus), tor.LinkID(0, 2, torus.Minus)}
	if _, err := planGroupFlows(t, tor, s, d, 64<<10, 0, failed, true); err == nil {
		t.Fatal("plan with its only minimal route cut succeeded")
	}
}
