// Quickstart: move a large message between the two far corners of a
// 128-node BG/Q partition, first over the default single deterministic
// path, then over four link-disjoint proxy paths, and compare.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

func main() {
	// A 128-node partition wired as a 2x2x4x4x2 torus, the geometry of
	// the paper's first microbenchmark.
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	params := netsim.DefaultParams()

	src := torus.NodeID(0)
	dst := torus.NodeID(tor.Size() - 1)
	const bytes = 64 << 20

	fmt.Printf("moving %d MB from %v to %v on a %v torus\n\n",
		bytes>>20, tor.Coord(src), tor.Coord(dst), tor.Shape())

	// --- Direct: the default deterministic single path. ---
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, params.LinkBandwidth), params)
	if err != nil {
		log.Fatal(err)
	}
	e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes})
	mk, err := e.Run()
	if err != nil {
		log.Fatal(err)
	}
	direct := netsim.Throughput(bytes, mk)
	r := routing.DeterministicRoute(tor, src, dst)
	fmt.Printf("direct: single %d-hop path, %.2f GB/s\n", r.Hops(), direct/1e9)
	fmt.Printf("  route: %s\n\n", routing.DescribeRoute(tor, r))

	// --- Proxied: Algorithm 1 with up to 4 proxies. ---
	planner, err := core.NewPairPlanner(tor, core.ProxyConfig{Proxies: 4})
	if err != nil {
		log.Fatal(err)
	}
	e2, err := netsim.NewEngine(netsim.NewNetwork(tor, params.LinkBandwidth), params)
	if err != nil {
		log.Fatal(err)
	}
	plan, err := planner.PlanPair(e2, src, dst, bytes)
	if err != nil {
		log.Fatal(err)
	}
	mk2, err := e2.Run()
	if err != nil {
		log.Fatal(err)
	}
	proxied := netsim.Throughput(bytes, mk2)
	fmt.Printf("proxied: %v via %d proxies, %.2f GB/s (%.2fx)\n",
		plan.Mode, len(plan.Proxies), proxied/1e9, proxied/direct)
	for _, pr := range plan.Proxies {
		fmt.Printf("  %s%s proxy at %v: legs %d + %d hops\n",
			pr.Dir, torus.DimNames[pr.Dim], tor.Coord(pr.Proxy), pr.Leg1.Hops(), pr.Leg2.Hops())
	}
}
