// Haccio: the paper's application benchmark. A HACC-like cosmology run
// (internal/hacc: leapfrog particles, 38-byte checkpoint records)
// periodically writes a checkpoint slice: only the ranks in the window
// [0.4N, 0.5N) hold particles to write. The example evolves real
// particles, serializes their records to /dev/null, then drives both
// I/O paths at 8,192 cores on the simulator and reports the write
// throughput to the I/O nodes.
//
// Run with: go run ./examples/haccio
package main

import (
	"fmt"
	"io"
	"log"

	"bgqflow/internal/collio"
	"bgqflow/internal/core"
	"bgqflow/internal/hacc"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

func main() {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2}) // 512 nodes = 8192 cores
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

	// Evolve one representative writer rank's particles and serialize a
	// real checkpoint, so the burst sizes below are the sizes of actual
	// HACC-format records.
	const particlesPerWriter = 171_000
	sim, err := hacc.NewSim(particlesPerWriter, 64, 0, 1)
	if err != nil {
		log.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		sim.Step(0.1)
	}
	written, err := sim.Checkpoint(io.Discard) // the paper's /dev/null
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one writer's checkpoint: %d particles, %d bytes (%d B/record)\n",
		sim.NumParticles(), written, hacc.RecordBytes)

	data := workload.HACC(job.NumRanks(), particlesPerWriter)
	writers := job.NumRanks() - workload.CountZero(data)
	for r, d := range data {
		if d != 0 && d != written {
			log.Fatalf("rank %d burst %d does not match serialized checkpoint %d", r, d, written)
		}
	}
	fmt.Printf("HACC checkpoint: %d cores, %d writer ranks (window [0.4N,0.5N)), %.1f GB burst\n\n",
		job.NumRanks(), writers, float64(workload.Total(data))/1e9)

	// Default collective write.
	eDef, err := netsim.NewEngine(net, params)
	if err != nil {
		log.Fatal(err)
	}
	defPl, err := collio.NewPlanner(ios, job, params, collio.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	defPlan, err := defPl.Plan(eDef, data)
	if err != nil {
		log.Fatal(err)
	}
	mkDef, err := eDef.Run()
	if err != nil {
		log.Fatal(err)
	}
	defGBps := float64(defPlan.TotalBytes) / (float64(mkDef) + float64(defPlan.Metadata)) / 1e9

	// Customized aggregator selection.
	eOurs, err := netsim.NewEngine(net, params)
	if err != nil {
		log.Fatal(err)
	}
	oursPl, err := core.NewAggPlanner(ios, job, params, core.DefaultAggConfig())
	if err != nil {
		log.Fatal(err)
	}
	oursPlan, err := oursPl.Plan(eOurs, data)
	if err != nil {
		log.Fatal(err)
	}
	mkOurs, err := eOurs.Run()
	if err != nil {
		log.Fatal(err)
	}
	oursGBps := float64(oursPlan.TotalBytes) / (float64(mkOurs) + float64(oursPlan.Metadata)) / 1e9

	fmt.Printf("default MPI collective I/O:      %6.2f GB/s (%d aggregators, %d rounds)\n",
		defGBps, defPlan.NumAggregators, defPlan.Rounds)
	fmt.Printf("customized aggregator selection: %6.2f GB/s (%d aggregators, %d per pset)\n",
		oursGBps, oursPlan.NumAggregators, oursPlan.AggPerPset)
	fmt.Printf("\nimprovement: %.0f%%\n", (oursGBps/defGBps-1)*100)
}
