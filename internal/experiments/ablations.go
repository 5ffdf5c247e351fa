package experiments

import (
	"math/rand"

	"bgqflow/internal/collio"
	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// AblationThresholdResult validates the paper's Eq. 5 cost model: the
// asymptotic gain of k proxies is k/2, so k=2 never wins, and below the
// size threshold splitting loses. One curve per proxy count, values are
// gain over direct transfer.
type AblationThresholdResult struct {
	Shape  torus.Shape
	Curves []Curve // gain vs direct, per k
}

// AblationThreshold sweeps message size for k = 2, 3, 4 fixed proxies on
// the Fig. 5 geometry.
func AblationThreshold(opt Options) (AblationThresholdResult, error) {
	p := netsim.DefaultParams()
	shape := torus.Shape{2, 2, 4, 4, 2}
	tor, err := torus.New(shape)
	if err != nil {
		return AblationThresholdResult{}, err
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	res := AblationThresholdResult{Shape: shape}

	directCfg := core.DefaultProxyConfig()
	directCfg.Threshold = 1 << 62

	ks := []int{2, 3, 4}
	sizes := messageSizes(opt.Quick)
	vals := make([]float64, len(ks)*len(sizes))
	err = forEachPoint(opt, len(vals), func(i int) error {
		k := ks[i/len(sizes)]
		size := sizes[i%len(sizes)]
		cfg := core.DefaultProxyConfig()
		cfg.Threshold = 0
		cfg.MinProxies = k
		cfg.MaxProxies = k
		d, _, err := runPair(tor, p, directCfg, src, dst, size, opt.EngineHook)
		if err != nil {
			return err
		}
		pr, _, err := runPair(tor, p, cfg, src, dst, size, opt.EngineHook)
		if err != nil {
			return err
		}
		vals[i] = pr / d
		return nil
	})
	if err != nil {
		return res, err
	}
	for ki, k := range ks {
		c := Curve{Name: ksuffix(k)}
		for zi, size := range sizes {
			c.Points = append(c.Points, CurvePoint{size, vals[ki*len(sizes)+zi]})
		}
		res.Curves = append(res.Curves, c)
	}
	return res, nil
}

func ksuffix(k int) string {
	return map[int]string{2: "k=2 proxies", 3: "k=3 proxies", 4: "k=4 proxies"}[k]
}

// AblationPlacementResult compares the paper's link-disjoint placement
// against naive intermediate nodes (random placement, default routes for
// both legs) at a fixed large message size.
type AblationPlacementResult struct {
	Bytes           int64
	DirectGBps      float64
	DisjointGBps    float64
	NaiveGBps       float64
	DisjointProxies int
}

// AblationPlacement quantifies how much of the multipath gain comes from
// the placement heuristic rather than from mere path multiplicity.
func AblationPlacement(opt Options) (AblationPlacementResult, error) {
	p := netsim.DefaultParams()
	tor, err := torus.New(torus.Shape{2, 2, 4, 4, 2})
	if err != nil {
		return AblationPlacementResult{}, err
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	const bytes = 64 << 20
	res := AblationPlacementResult{Bytes: bytes}

	directCfg := core.DefaultProxyConfig()
	directCfg.Threshold = 1 << 62

	cfg := core.DefaultProxyConfig()
	cfg.Threshold = 0
	cfg.MaxProxies = 4
	cfg.MinProxies = 1
	pl, err := core.NewPairPlanner(tor, cfg)
	if err != nil {
		return res, err
	}
	res.DisjointProxies = len(pl.SelectProxies(src, dst))

	// Three independent measurements: direct, disjoint placement, naive
	// placement. Each point writes its own result field.
	err = forEachPoint(opt, 3, func(i int) error {
		switch i {
		case 0:
			d, _, err := runPair(tor, p, directCfg, src, dst, bytes, opt.EngineHook)
			if err != nil {
				return err
			}
			res.DirectGBps = d / 1e9
		case 1:
			dj, _, err := runPair(tor, p, cfg, src, dst, bytes, opt.EngineHook)
			if err != nil {
				return err
			}
			res.DisjointGBps = dj / 1e9
		case 2:
			// Naive: 4 random intermediate nodes, default deterministic
			// routes for both legs, no disjointness checks.
			e, err := newEngine(tor, p, opt.EngineHook)
			if err != nil {
				return err
			}
			rng := rand.New(rand.NewSource(12345))
			pieces := int64(bytes / 4)
			for j := 0; j < 4; j++ {
				var proxy torus.NodeID
				for {
					proxy = torus.NodeID(rng.Intn(tor.Size()))
					if proxy != src && proxy != dst {
						break
					}
				}
				l1 := e.Submit(netsim.FlowSpec{Src: src, Dst: proxy, Bytes: pieces})
				e.Submit(netsim.FlowSpec{Src: proxy, Dst: dst, Bytes: pieces,
					DependsOn: []netsim.FlowID{l1}, ExtraDelay: p.ProxyForwardOverhead})
			}
			mk, err := e.Run()
			if err != nil {
				return err
			}
			addSimTime(mk)
			res.NaiveGBps = netsim.Throughput(bytes, mk) / 1e9
		}
		return nil
	})
	return res, err
}

// AblationAggCountResult compares the dynamic data-size-driven aggregator
// count against fixed per-pset counts on a Pattern 1 burst.
type AblationAggCountResult struct {
	Cores          int
	BurstGB        float64
	DynamicGBps    float64
	DynamicPerPset int
	Fixed          []struct {
		PerPset int
		GBps    float64
	}
}

// AblationAggCount validates Algorithm 2's dynamic selection.
func AblationAggCount(opt Options) (AblationAggCountResult, error) {
	p := netsim.DefaultParams()
	cores := 32768
	if opt.Quick {
		cores = 8192
	}
	shape, err := ShapeForCores(cores)
	if err != nil {
		return AblationAggCountResult{}, err
	}
	probe, err := newIORig(shape, 16, p, opt.EngineHook)
	if err != nil {
		return AblationAggCountResult{}, err
	}
	data := workload.Uniform(probe.job.NumRanks(), eightMB, 99)
	res := AblationAggCountResult{Cores: cores, BurstGB: float64(workload.Total(data)) / 1e9}

	// One self-contained point per configuration: each builds its own rig
	// (sinks and planners register links on the network) and regenerates
	// the same seeded burst.
	run := func(cfg core.AggConfig) (float64, int, error) {
		rig, err := newIORig(shape, 16, p, opt.EngineHook)
		if err != nil {
			return 0, 0, err
		}
		e, err := rig.engine()
		if err != nil {
			return 0, 0, err
		}
		pl, err := core.NewAggPlanner(rig.ios, rig.job, rig.p, cfg)
		if err != nil {
			return 0, 0, err
		}
		plan, err := pl.Plan(e, workload.Uniform(rig.job.NumRanks(), eightMB, 99))
		if err != nil {
			return 0, 0, err
		}
		mk, err := e.Run()
		if err != nil {
			return 0, 0, err
		}
		addSimTime(mk)
		return float64(plan.TotalBytes) / (float64(mk) + float64(plan.Metadata)) / 1e9, plan.AggPerPset, nil
	}

	fixedCounts := []int{1, 4, 128}
	type point struct {
		gbps    float64
		perPset int
	}
	pts := make([]point, 1+len(fixedCounts))
	err = forEachPoint(opt, len(pts), func(i int) error {
		cfg := core.DefaultAggConfig()
		if i > 0 {
			cfg = core.AggConfig{MinBytesPerAggregator: 1, MaxAggregatorsPerPset: fixedCounts[i-1]}
		}
		gbps, perPset, err := run(cfg)
		if err != nil {
			return err
		}
		pts[i] = point{gbps, perPset}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.DynamicGBps, res.DynamicPerPset = pts[0].gbps, pts[0].perPset
	for _, pt := range pts[1:] {
		res.Fixed = append(res.Fixed, struct {
			PerPset int
			GBps    float64
		}{pt.perPset, pt.gbps})
	}
	return res, nil
}

// AblationRoundSyncResult isolates the cost of the default collective
// I/O path's per-round synchronization by turning it off.
type AblationRoundSyncResult struct {
	Cores        int
	SyncedGBps   float64
	UnsyncedGBps float64
	OursGBps     float64
}

// AblationRoundSync quantifies how much of the default path's deficit
// comes from round serialization versus aggregator placement.
func AblationRoundSync(opt Options) (AblationRoundSyncResult, error) {
	p := netsim.DefaultParams()
	cores := 32768
	if opt.Quick {
		cores = 8192
	}
	shape, err := ShapeForCores(cores)
	if err != nil {
		return AblationRoundSyncResult{}, err
	}
	res := AblationRoundSyncResult{Cores: cores}

	// Each point builds its own rig and regenerates the seeded burst, so
	// the three measurements are independent.
	runCollio := func(sync bool) (float64, error) {
		rig, err := newIORig(shape, 16, p, opt.EngineHook)
		if err != nil {
			return 0, err
		}
		e, err := rig.engine()
		if err != nil {
			return 0, err
		}
		cfg := collio.DefaultConfig()
		cfg.RoundSync = sync
		pl, err := collio.NewPlanner(rig.ios, rig.job, rig.p, cfg)
		if err != nil {
			return 0, err
		}
		plan, err := pl.Plan(e, workload.Uniform(rig.job.NumRanks(), eightMB, 31))
		if err != nil {
			return 0, err
		}
		mk, err := e.Run()
		if err != nil {
			return 0, err
		}
		addSimTime(mk)
		return float64(plan.TotalBytes) / (float64(mk) + float64(plan.Metadata)) / 1e9, nil
	}
	err = forEachPoint(opt, 3, func(i int) error {
		switch i {
		case 0:
			v, err := runCollio(true)
			if err != nil {
				return err
			}
			res.SyncedGBps = v
		case 1:
			v, err := runCollio(false)
			if err != nil {
				return err
			}
			res.UnsyncedGBps = v
		case 2:
			rig, err := newIORig(shape, 16, p, opt.EngineHook)
			if err != nil {
				return err
			}
			v, err := aggThroughput(rig, workload.Uniform(rig.job.NumRanks(), eightMB, 31), true)
			if err != nil {
				return err
			}
			res.OursGBps = v
		}
		return nil
	})
	return res, err
}

// AblationZonesResult measures how much path diversity each routing zone
// gives to a burst of concurrent messages between one node pair.
type AblationZonesResult struct {
	Messages int
	Bytes    int64
	PerZone  []struct {
		Zone routing.Zone
		GBps float64
	}
}

// AblationZones submits concurrent same-pair messages routed per zone.
// The deterministic zones (2, 3) pin every message to one path; the
// dynamic zones (0, 1) spread them, which is the routing freedom the
// proxy mechanism exploits explicitly.
func AblationZones(opt Options) (AblationZonesResult, error) {
	p := netsim.DefaultParams()
	tor, err := torus.New(torus.Shape{4, 4, 4, 4, 2})
	if err != nil {
		return AblationZonesResult{}, err
	}
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{2, 2, 2, 2, 1})
	const messages = 8
	const bytes = 16 << 20
	res := AblationZonesResult{Messages: messages, Bytes: bytes}
	res.PerZone = make([]struct {
		Zone routing.Zone
		GBps float64
	}, 4)
	err = forEachPoint(opt, 4, func(i int) error {
		z := routing.Zone(i)
		router, err := routing.NewRouter(tor, z, 7)
		if err != nil {
			return err
		}
		e, err := newEngine(tor, p, opt.EngineHook)
		if err != nil {
			return err
		}
		for m := 0; m < messages; m++ {
			r := router.Route(src, dst)
			e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes, Links: r.Links})
		}
		mk, err := e.Run()
		if err != nil {
			return err
		}
		addSimTime(mk)
		res.PerZone[i] = struct {
			Zone routing.Zone
			GBps float64
		}{z, netsim.Throughput(messages*bytes, mk) / 1e9}
		return nil
	})
	return res, err
}
