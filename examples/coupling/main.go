// Coupling: the multiphysics data-coupling scenario. Two physics modules
// occupy two 256-node regions of a 2K-node partition; at every coupling
// step the first module ships a field to the second. The example compares
// the default direct transfers against the proxy-group multipath plan and
// shows how many links each approach keeps busy.
//
// Run with: go run ./examples/coupling
package main

import (
	"fmt"
	"log"
	"os"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
)

func main() {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	params := netsim.DefaultParams()

	// The atmosphere module on one slab, the ocean module on another.
	atmosphere := torus.MustNewBox(tor, torus.Coord{0, 0, 0, 0, 0}, torus.Shape{1, 4, 4, 16, 1})
	ocean := torus.MustNewBox(tor, torus.Coord{2, 0, 0, 0, 1}, torus.Shape{1, 4, 4, 16, 1})
	const fieldBytes = 8 << 20 // per node pair and coupling step

	fmt.Printf("coupling %d node pairs, %d MB per pair, on a %v torus\n\n",
		atmosphere.Size(), fieldBytes>>20, tor.Shape())

	run := func(name string, proxies int) {
		gp := core.NewGroupPlanner(tor, core.ProxyConfig{Proxies: proxies})
		e, err := netsim.NewEngine(netsim.NewNetwork(tor, params.LinkBandwidth), params)
		if err != nil {
			log.Fatal(err)
		}
		plan, err := gp.Plan(e, atmosphere, ocean, fieldBytes)
		if err != nil {
			log.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			log.Fatal(err)
		}
		perPair := netsim.Throughput(fieldBytes, mk)
		agg := netsim.Throughput(plan.TotalBytes, mk)
		fmt.Printf("%s: mode=%v groups=%v\n", name, plan.Mode, plan.Groups)
		fmt.Printf("  per-pair %.2f GB/s, aggregate %.1f GB/s, coupling step %.2f ms\n",
			perPair/1e9, agg/1e9, float64(mk)*1e3)
		rep := trace.Analyze(e, mk, 3)
		rep.WriteTo(os.Stdout, e)
		fmt.Println()
	}

	run("direct (default routing)", -1)
	run("multipath (Algorithm 1)", 0)
}
