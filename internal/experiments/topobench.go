package experiments

import (
	"fmt"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// topoCompareSpecs are the fabrics the cross-topology benchmark sweeps:
// the paper's 128-node midplane slice plus dragonfly and fat-tree
// fabrics of comparable endpoint count, so the curves answer "what does
// the same transfer cost on a different machine" rather than comparing
// machines of different sizes.
var topoCompareSpecs = []string{
	"torus:2x2x4x4x2",  // 128 nodes, the BG/Q baseline
	"dragonfly:16x8x2", // 128 nodes, 2-rail global links
	"fattree:128x16x2", // 128 leaves, 16 spines, 2 rails
}

// TopoFabric is one fabric's direct-transfer curve.
type TopoFabric struct {
	Spec  string
	Nodes int
	Hops  int // route length of the measured pair
	Curve Curve
}

// TopoCompareResult is the cross-topology direct-transfer comparison.
type TopoCompareResult struct {
	Fabrics []TopoFabric
}

// TopoCompare sweeps a corner-to-corner direct pair transfer over the
// paper's message sizes on each fabric in topoCompareSpecs. Every point
// builds its own network and engine (the fabric parsed fresh), so the
// sweep parallelizes like the figure runners and honors EngineHook for
// -check audits.
func TopoCompare(opt Options) (TopoCompareResult, error) {
	p := netsim.DefaultParams()
	sizes := messageSizes(opt.Quick)
	res := TopoCompareResult{Fabrics: make([]TopoFabric, len(topoCompareSpecs))}
	for fi, spec := range topoCompareSpecs {
		tp, err := topo.Parse(spec)
		if err != nil {
			return res, err
		}
		src, dst := torus.NodeID(0), torus.NodeID(tp.NumNodes()-1)
		res.Fabrics[fi] = TopoFabric{
			Spec:  spec,
			Nodes: tp.NumNodes(),
			Hops:  len(tp.Route(src, dst)),
			Curve: Curve{Name: spec, Points: make([]CurvePoint, len(sizes))},
		}
	}
	type key struct{ fi, si int }
	points := make([]key, 0, len(topoCompareSpecs)*len(sizes))
	for fi := range topoCompareSpecs {
		for si := range sizes {
			points = append(points, key{fi, si})
		}
	}
	err := forEachPoint(opt, len(points), func(i int) error {
		fi, si := points[i].fi, points[i].si
		tp, err := topo.Parse(topoCompareSpecs[fi])
		if err != nil {
			return err
		}
		net := netsim.NewNetworkTopo(tp, p.LinkBandwidth)
		e, err := netsim.NewEngine(net, p)
		if err != nil {
			return err
		}
		if opt.EngineHook != nil {
			opt.EngineHook(e)
		}
		src, dst := torus.NodeID(0), torus.NodeID(tp.NumNodes()-1)
		e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: sizes[si], Label: "direct"})
		mk, err := e.Run()
		if err != nil {
			return fmt.Errorf("%s at %d bytes: %w", topoCompareSpecs[fi], sizes[si], err)
		}
		res.Fabrics[fi].Curve.Points[si] = CurvePoint{
			Bytes: sizes[si],
			GBps:  netsim.Throughput(sizes[si], sim.Duration(mk)) / 1e9,
		}
		return nil
	})
	return res, err
}
