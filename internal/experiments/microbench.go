package experiments

import (
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// Fig5Result reproduces "Point to point PUT throughputs with and w/o
// proxies in 2x2x4x4x2": throughput between the first and last node of a
// 128-node partition, direct versus 4 proxies.
type Fig5Result struct {
	Shape     torus.Shape
	Direct    Curve
	Proxied   Curve
	Crossover int64 // smallest size where the proxied transfer wins
}

// Fig5 runs the first microbenchmark.
func Fig5(opt Options) (Fig5Result, error) {
	p := netsim.DefaultParams()
	shape := torus.Shape{2, 2, 4, 4, 2}
	tor, err := torus.New(shape)
	if err != nil {
		return Fig5Result{}, err
	}
	src := torus.NodeID(0)
	dst := torus.NodeID(tor.Size() - 1)

	res := Fig5Result{
		Shape:   shape,
		Direct:  Curve{Name: "direct"},
		Proxied: Curve{Name: "4 proxies (+B,+C,+D,+E)"},
	}
	directCfg := core.DefaultProxyConfig()
	directCfg.Threshold = 1 << 62 // always direct
	proxyCfg := core.DefaultProxyConfig()
	proxyCfg.Threshold = 0 // always proxied (the paper plots both curves)
	proxyCfg.MaxProxies = 4
	proxyCfg.MinProxies = 1

	sizes := messageSizes(opt.Quick)
	type point struct{ d, pr float64 }
	pts := make([]point, len(sizes))
	err = forEachPoint(opt, len(sizes), func(i int) error {
		size := sizes[i]
		d, _, err := runPair(tor, p, directCfg, src, dst, size, opt.EngineHook)
		if err != nil {
			return err
		}
		pr, mode, err := runPair(tor, p, proxyCfg, src, dst, size, opt.EngineHook)
		if err != nil {
			return err
		}
		if mode != core.Proxied {
			return fmt.Errorf("fig5: proxied run fell back to %v at %d bytes", mode, size)
		}
		pts[i] = point{d, pr}
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, size := range sizes {
		res.Direct.Points = append(res.Direct.Points, CurvePoint{size, pts[i].d / 1e9})
		res.Proxied.Points = append(res.Proxied.Points, CurvePoint{size, pts[i].pr / 1e9})
		if res.Crossover == 0 && pts[i].pr > pts[i].d {
			res.Crossover = size
		}
	}
	return res, nil
}

// Fig6Result reproduces "Point to point PUT throughputs w & w/o proxies
// between 2 groups of 256 nodes each in 2K nodes 4x4x4x16x2": per-pair
// average throughput, direct versus 3 proxy groups.
type Fig6Result struct {
	Shape     torus.Shape
	Groups    []core.GroupDirection
	Direct    Curve
	Proxied   Curve
	Crossover int64
}

// fig6Boxes returns the two 256-node groups: slabs at opposite ends whose
// pairwise routes run on per-pair-private rings (consistent with the
// paper's measured clean ~1.6 GB/s direct throughput).
func fig6Boxes(tor *torus.Torus) (torus.Box, torus.Box) {
	s := torus.MustNewBox(tor, torus.Coord{0, 0, 0, 0, 0}, torus.Shape{1, 4, 4, 16, 1})
	d := torus.MustNewBox(tor, torus.Coord{2, 0, 0, 0, 1}, torus.Shape{1, 4, 4, 16, 1})
	return s, d
}

// Fig6 runs the group-to-group microbenchmark.
func Fig6(opt Options) (Fig6Result, error) {
	p := netsim.DefaultParams()
	shape := torus.Shape{4, 4, 4, 16, 2}
	tor, err := torus.New(shape)
	if err != nil {
		return Fig6Result{}, err
	}
	sBox, tBox := fig6Boxes(tor)
	res := Fig6Result{
		Shape:   shape,
		Groups:  core.SelectGroupDirections(tor, sBox, tBox, 0),
		Direct:  Curve{Name: "direct"},
		Proxied: Curve{Name: "3 proxy groups"},
	}
	sizes := messageSizes(opt.Quick)
	type point struct{ d, pr float64 }
	pts := make([]point, len(sizes))
	err = forEachPoint(opt, len(sizes), func(i int) error {
		size := sizes[i]
		d, err := runGroup(tor, p, sBox, tBox, size, -1, opt.EngineHook)
		if err != nil {
			return err
		}
		pr, err := runGroup(tor, p, sBox, tBox, size, 0, opt.EngineHook)
		if err != nil {
			return err
		}
		pts[i] = point{d, pr}
		return nil
	})
	if err != nil {
		return res, err
	}
	for i, size := range sizes {
		res.Direct.Points = append(res.Direct.Points, CurvePoint{size, pts[i].d / 1e9})
		res.Proxied.Points = append(res.Proxied.Points, CurvePoint{size, pts[i].pr / 1e9})
		if res.Crossover == 0 && pts[i].pr > pts[i].d {
			res.Crossover = size
		}
	}
	return res, nil
}

// runGroup executes a group transfer and returns per-pair average
// throughput in bytes/second. groups: -1 forces direct, 0 auto-selects,
// >0 forces that many proxy groups.
func runGroup(tor *torus.Torus, p netsim.Params, sBox, tBox torus.Box, bytesPerPair int64, groups int, hook func(*netsim.Engine)) (float64, error) {
	e, err := newEngine(tor, p, hook)
	if err != nil {
		return 0, err
	}
	cfg := core.DefaultProxyConfig()
	if groups < 0 {
		cfg.Threshold = 1 << 62 // always direct
	} else {
		cfg.Threshold = 0
		cfg.MinProxies = 1
	}
	gp, err := core.NewGroupPlanner(tor, cfg)
	if err != nil {
		return 0, err
	}
	if groups > 0 {
		gp.ForceGroups = groups
	}
	if _, err := gp.Plan(e, sBox, tBox, bytesPerPair); err != nil {
		return 0, err
	}
	mk, err := e.Run()
	if err != nil {
		return 0, err
	}
	addSimTime(mk)
	return netsim.Throughput(bytesPerPair, mk), nil
}

// Fig7Result reproduces "Performance variance with number of proxies":
// 2 groups of 32 nodes in a 512-node 4x4x4x4x2 partition, sweeping the
// number of proxy groups.
type Fig7Result struct {
	Shape  torus.Shape
	Curves []Curve // "no proxies", "2 groups", ..., "5 groups"
}

func fig7Boxes(tor *torus.Torus) (torus.Box, torus.Box) {
	s := torus.MustNewBox(tor, torus.Coord{0, 0, 0, 0, 0}, torus.Shape{1, 1, 4, 4, 2})
	d := torus.MustNewBox(tor, torus.Coord{3, 3, 0, 0, 0}, torus.Shape{1, 1, 4, 4, 2})
	return s, d
}

// Fig7 runs the proxy-count sweep.
func Fig7(opt Options) (Fig7Result, error) {
	p := netsim.DefaultParams()
	shape := torus.Shape{4, 4, 4, 4, 2}
	tor, err := torus.New(shape)
	if err != nil {
		return Fig7Result{}, err
	}
	sBox, tBox := fig7Boxes(tor)
	res := Fig7Result{Shape: shape}
	sweeps := []struct {
		name   string
		groups int
	}{
		{"no proxies", -1},
		{"2 groups of proxies", 2},
		{"3 groups of proxies", 3},
		{"4 groups as proxies", 4},
		{"5 groups of proxies", 5},
	}
	sizes := messageSizes(opt.Quick)
	vals := make([]float64, len(sweeps)*len(sizes))
	err = forEachPoint(opt, len(vals), func(i int) error {
		sw := sweeps[i/len(sizes)]
		th, err := runGroup(tor, p, sBox, tBox, sizes[i%len(sizes)], sw.groups, opt.EngineHook)
		if err != nil {
			return err
		}
		vals[i] = th
		return nil
	})
	if err != nil {
		return res, err
	}
	for si, sw := range sweeps {
		c := Curve{Name: sw.name}
		for zi, size := range sizes {
			c.Points = append(c.Points, CurvePoint{size, vals[si*len(sizes)+zi] / 1e9})
		}
		res.Curves = append(res.Curves, c)
	}
	return res, nil
}
