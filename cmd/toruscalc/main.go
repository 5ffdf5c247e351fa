// Command toruscalc inspects BG/Q torus geometries: routes between
// nodes, pset and bridge layout, and the proxies the multipath planner
// would select for a pair.
//
// Usage:
//
//	toruscalc -shape 2x2x4x4x2 route 0 127
//	toruscalc -shape 4x4x4x16x2 psets
//	toruscalc -shape 2x2x4x4x2 proxies 0 127
//	toruscalc -shape 2x2x4x4x2 zones 0 127 1048576
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

func main() {
	shapeStr := flag.String("shape", "2x2x4x4x2", "torus shape, e.g. 4x4x4x16x2")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	shape, err := torus.ParseShape(*shapeStr)
	if err != nil {
		fatal(err)
	}
	tor, err := torus.New(shape)
	if err != nil {
		fatal(err)
	}

	switch args[0] {
	case "route":
		src, dst := nodeArg(tor, args, 1), nodeArg(tor, args, 2)
		r := routing.DeterministicRoute(tor, src, dst)
		fmt.Printf("deterministic route, %d hops:\n  %s\n", r.Hops(), routing.DescribeRoute(tor, r))
	case "psets":
		p := netsim.DefaultParams()
		net := netsim.NewNetwork(tor, p.LinkBandwidth)
		ios, err := ionet.Build(net)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%d nodes, %d psets, %d I/O nodes, %.1f GB/s I/O per pset\n",
			tor.Size(), ios.NumPsets(), ios.NumPsets(), ios.PsetAggregateIOBandwidth()/1e9)
		for i := 0; i < ios.NumPsets(); i++ {
			ps := ios.Pset(i)
			fmt.Printf("  pset %d: box %v, bridges", i, ps.Box)
			for _, b := range ps.Bridges {
				fmt.Printf(" %v", tor.Coord(b))
			}
			fmt.Println()
		}
	case "proxies":
		src, dst := nodeArg(tor, args, 1), nodeArg(tor, args, 2)
		pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
		if err != nil {
			fatal(err)
		}
		proxies := pl.SelectProxies(src, dst)
		fmt.Printf("%d link-disjoint proxies for %v -> %v:\n", len(proxies), tor.Coord(src), tor.Coord(dst))
		for _, pr := range proxies {
			fmt.Printf("  %s%s proxy %v\n    leg1: %s\n    leg2: %s\n",
				pr.Dir, torus.DimNames[pr.Dim], tor.Coord(pr.Proxy),
				routing.DescribeRoute(tor, pr.Leg1), routing.DescribeRoute(tor, pr.Leg2))
		}
	case "zones":
		src, dst := nodeArg(tor, args, 1), nodeArg(tor, args, 2)
		size := int64(1 << 20)
		if len(args) > 3 {
			v, err := strconv.ParseInt(args[3], 10, 64)
			if err != nil {
				fatal(err)
			}
			size = v
		}
		z := routing.SelectZone(tor, src, dst, size)
		fmt.Printf("flexibility %d, selected %v for %d-byte messages\n",
			routing.Flexibility(tor, src, dst), z, size)
	case "groups":
		// groups <srcOrigin> <srcExtent> <dstOrigin> — boxes as comma
		// separated coordinates; destination shares the source extent.
		if len(args) < 4 {
			usage()
		}
		srcO, err := parseCoord(args[1], tor.Dims())
		if err != nil {
			fatal(err)
		}
		ext, err := parseCoord(args[2], tor.Dims())
		if err != nil {
			fatal(err)
		}
		dstO, err := parseCoord(args[3], tor.Dims())
		if err != nil {
			fatal(err)
		}
		sBox, err := torus.NewBox(tor, srcO, torus.Shape(ext))
		if err != nil {
			fatal(err)
		}
		dBox, err := torus.NewBox(tor, dstO, torus.Shape(ext))
		if err != nil {
			fatal(err)
		}
		groups := core.SelectGroupDirections(tor, sBox, dBox, 0)
		fmt.Printf("%d disjoint proxy groups for %v -> %v:", len(groups), sBox, dBox)
		for _, g := range groups {
			fmt.Printf(" %v", g)
		}
		fmt.Println()
	case "model":
		// model <src> <dst> [k]: cost-model predictions for a pair.
		src, dst := nodeArg(tor, args, 1), nodeArg(tor, args, 2)
		k := 4
		if len(args) > 3 {
			v, err := strconv.Atoi(args[3])
			if err != nil || v < 1 {
				fatal(fmt.Errorf("bad proxy count %q", args[3]))
			}
			k = v
		}
		m, err := core.NewCostModel(netsim.DefaultParams())
		if err != nil {
			fatal(err)
		}
		hops := tor.HopDistance(src, dst)
		pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
		if err != nil {
			fatal(err)
		}
		proxies := pl.SelectProxies(src, dst)
		if len(proxies) < k {
			fmt.Printf("only %d link-disjoint proxies available (asked for %d)\n", len(proxies), k)
			if len(proxies) == 0 {
				return
			}
			k = len(proxies)
		}
		// The planner's terms (CostModel.PairThreshold): one hop to each
		// proxy, then a second leg as long as the direct route.
		h1, h2 := 1, hops
		th := m.PairThreshold(k, hops)
		fmt.Printf("pair %v -> %v: %d hops direct, k=%d proxies\n", tor.Coord(src), tor.Coord(dst), hops, k)
		if th == 0 {
			fmt.Println("model: proxies never win for this k (Eq. 5)")
			return
		}
		fmt.Printf("model threshold: %d bytes; asymptotic gain %.2fx\n", th, m.Gain(1<<33, k, hops, h1, h2))
		for _, d := range []int64{64 << 10, 1 << 20, 16 << 20, 128 << 20} {
			fmt.Printf("  %8d bytes: direct %8.1fus, %d-proxy %8.1fus (gain %.2fx)\n",
				d, m.DirectTime(d, hops).Microseconds(), k,
				m.ProxyTime(d, k, h1, h2).Microseconds(), m.Gain(d, k, hops, h1, h2))
		}
	case "map":
		// map <order> <ranksPerNode>: preview the first ranks per node.
		if len(args) < 3 {
			usage()
		}
		rpn, err := strconv.Atoi(args[2])
		if err != nil {
			fatal(err)
		}
		job, err := mpisim.NewJobWithMapping(tor, rpn, mpisim.MapOrder(args[1]))
		if err != nil {
			fatal(err)
		}
		fmt.Printf("mapping %s, %d ranks:\n", job.Order(), job.NumRanks())
		limit := 32
		if job.NumRanks() < limit {
			limit = job.NumRanks()
		}
		for r := 0; r < limit; r++ {
			n := job.NodeOf(r)
			fmt.Printf("  rank %3d -> node %4d %v\n", r, n, tor.Coord(n))
		}
	default:
		usage()
	}
}

func parseCoord(s string, dims int) (torus.Coord, error) {
	parts := strings.Split(s, ",")
	if len(parts) != dims {
		return nil, fmt.Errorf("coordinate %q needs %d components", s, dims)
	}
	c := make(torus.Coord, dims)
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad coordinate %q", s)
		}
		c[i] = v
	}
	return c, nil
}

func nodeArg(tor *torus.Torus, args []string, i int) torus.NodeID {
	if i >= len(args) {
		usage()
	}
	v, err := strconv.Atoi(args[i])
	if err != nil || v < 0 || v >= tor.Size() {
		fatal(fmt.Errorf("bad node %q (torus has %d nodes)", args[i], tor.Size()))
	}
	return torus.NodeID(v)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: toruscalc [-shape AxBxCxDxE] <command>
commands:
  route <src> <dst>          show the deterministic route
  psets                      show pset / bridge / ION layout
  proxies <src> <dst>        show the multipath planner's proxy selection
  zones <src> <dst> [bytes]  show zone selection for a message
  model <src> <dst> [k]      cost-model threshold and gain predictions
  groups <sOrig> <ext> <dOrig>  show proxy-group selection for two boxes
                             (coordinates comma separated, e.g. 0,0,0,0,0)
  map <order> <ranksPerNode> preview a rank mapping (e.g. map TABCDE 16)`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "toruscalc:", err)
	os.Exit(1)
}
