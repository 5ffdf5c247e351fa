package core_test

import (
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// A large message between far corners of a 128-node partition is split
// over four link-disjoint proxy paths (the paper's Fig. 5 setup).
func ExamplePairPlanner_PlanPair() {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	params := netsim.DefaultParams()
	planner, _ := core.NewPairPlanner(tor, core.ProxyConfig{Proxies: 4})
	engine, _ := netsim.NewEngine(netsim.NewNetwork(tor, params.LinkBandwidth), params)

	plan, _ := planner.PlanPair(engine, 0, torus.NodeID(tor.Size()-1), 64<<20)
	makespan, _ := engine.Run()

	fmt.Printf("%v via %d proxies, %.2f GB/s\n",
		plan.Mode, len(plan.Proxies), netsim.Throughput(64<<20, makespan)/1e9)
	// Output: proxied via 4 proxies, 3.29 GB/s
}

// The Eq. 1-5 cost model predicts the paper's 256 KB crossover.
func ExampleCostModel_Threshold() {
	m, _ := core.NewCostModel(netsim.DefaultParams())
	th := m.Threshold(4, 5, 1, 4)
	fmt.Printf("within a doubling of 256KB: %v\n", th >= 128<<10 && th <= 512<<10)
	// Output: within a doubling of 256KB: true
}
