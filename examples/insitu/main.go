// Insitu: a genuine in-situ analysis pipeline. The simulation holds a
// distributed 3-D scalar field (internal/field); the in-situ analysis
// thresholds it for regions of interest, and each rank writes only its
// above-threshold cells (with their surrounding high-resolution
// sub-blocks). Because the structures are spatially concentrated, the
// burst is sparse and heavy-tailed — the organic origin of the paper's
// Pattern 2. The example compares the default MPI collective write
// against the topology-aware dynamic aggregation and prints the
// resulting I/O-node load balance.
//
// Run with: go run ./examples/insitu
package main

import (
	"fmt"
	"log"

	"bgqflow/internal/collio"
	"bgqflow/internal/core"
	"bgqflow/internal/field"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/stats"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
	"bgqflow/internal/workload"
)

func main() {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2}) // 2048 nodes, 32768 cores
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	ios, err := ionet.Build(net)
	if err != nil {
		log.Fatal(err)
	}
	job, err := mpisim.NewJob(tor, 16)
	if err != nil {
		log.Fatal(err)
	}

	// One analysis cell per 192^3/32768 brick; each above-threshold cell
	// writes its 32 KB high-resolution sub-block.
	grid, err := field.NewGrid(192, 192, 192, 32, 32, 32)
	if err != nil {
		log.Fatal(err)
	}
	fld, err := field.Synthesize(grid, 6, 2026)
	if err != nil {
		log.Fatal(err)
	}
	const subBlockBytes = 32 << 10
	const threshold = 0.35
	data := fld.ExtractSizes(threshold, subBlockBytes)
	ranksWithData, volume := field.Sparsity(data, grid.CellsPerRank(), subBlockBytes)
	fmt.Printf("in-situ analysis: %d ranks over a %dx%dx%d field, threshold %.2f\n",
		job.NumRanks(), grid.NX, grid.NY, grid.NZ, threshold)
	fmt.Printf("burst: %.1f GB (%.1f%% of dense), %.0f%% of ranks hold data, %d ranks empty\n\n",
		float64(workload.Total(data))/1e9, volume*100, ranksWithData*100,
		workload.CountZero(data))

	type outcome struct {
		name string
		gbps float64
		imb  float64
	}
	var outcomes []outcome

	// Default MPI collective I/O.
	{
		e, err := netsim.NewEngine(net, params)
		if err != nil {
			log.Fatal(err)
		}
		pl, err := collio.NewPlanner(ios, job, params, collio.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			log.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			log.Fatal(err)
		}
		gbps := float64(plan.TotalBytes) / (float64(mk) + float64(plan.Metadata)) / 1e9
		imb := stats.ImbalanceRatio(trace.UplinkLoads(e, ios))
		fmt.Printf("default collective I/O: %d aggregators, %d rounds\n", plan.NumAggregators, plan.Rounds)
		outcomes = append(outcomes, outcome{"default MPI collective I/O", gbps, imb})
	}

	// Topology-aware dynamic aggregation.
	{
		e, err := netsim.NewEngine(net, params)
		if err != nil {
			log.Fatal(err)
		}
		pl, err := core.NewAggPlanner(ios, job, params, core.DefaultAggConfig())
		if err != nil {
			log.Fatal(err)
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			log.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			log.Fatal(err)
		}
		gbps := float64(plan.TotalBytes) / (float64(mk) + float64(plan.Metadata)) / 1e9
		imb := stats.ImbalanceRatio(trace.UplinkLoads(e, ios))
		fmt.Printf("topology-aware aggregation: %d aggregators (%d per pset), %d sender nodes\n",
			plan.NumAggregators, plan.AggPerPset, plan.Senders)
		outcomes = append(outcomes, outcome{"topology-aware aggregation", gbps, imb})
	}

	fmt.Println()
	for _, o := range outcomes {
		fmt.Printf("%-30s %6.2f GB/s   uplink max/mean %.2f\n", o.name, o.gbps, o.imb)
	}
	fmt.Printf("\nspeedup: %.2fx\n", outcomes[1].gbps/outcomes[0].gbps)
}
