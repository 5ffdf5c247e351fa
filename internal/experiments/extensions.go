package experiments

import (
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/field"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/packetsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/storage"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// Extension experiments: studies beyond the paper's figures that the
// repository's extra substrates enable. E1 adds the storage tier behind
// the I/O nodes, E2 varies the rank mapping, E3 demonstrates the paper's
// pipelining future work, E4 cross-validates the flow-level model
// against the packet-level simulator.

// ExtStorageResult compares /dev/null against a GPFS-like tier for both
// aggregation approaches.
type ExtStorageResult struct {
	Cores   int
	BurstGB float64
	// Rows: [devnull, ample servers, scarce servers] x [ours, default].
	Rows []ExtStorageRow
}

// ExtStorageRow is one sink configuration's outcome.
type ExtStorageRow struct {
	Sink        string
	OursGBps    float64
	DefaultGBps float64
}

// ExtStorage runs E1.
func ExtStorage(opt Options) (ExtStorageResult, error) {
	cores := 32768
	rpn := 16
	if opt.Quick {
		// 4,096 cores is the smallest scale with more than one pset, so
		// the server-scarcity contrast survives while the smoke run
		// stays fast. Ranks-per-node drops to 4: flow count — not byte
		// volume — is what the flow-level engine pays for, and six
		// 4,096-rank aggregations dominated the whole quick sweep.
		cores = 4096
		rpn = 4
	}
	shape, err := ShapeForCores(cores)
	if err != nil {
		return ExtStorageResult{}, err
	}
	res := ExtStorageResult{Cores: cores}

	type sinkCase struct {
		name    string
		servers int // 0 = devnull
	}
	nio := 0
	{
		probe, err := newIORig(shape, rpn, opt.EngineHook)
		if err != nil {
			return res, err
		}
		nio = probe.ios.NumPsets()
		data := workload.Uniform(probe.job.NumRanks(), eightMB, int64(cores))
		res.BurstGB = float64(workload.Total(data)) / 1e9
	}
	cases := []sinkCase{
		{"devnull (paper)", 0},
		{"GPFS, ample servers", nio * 2},
		{"GPFS, scarce servers", max(1, nio/4)},
	}
	// Six self-contained points: (sink case) x (ours, default). Each
	// builds its own rig — sinks register extra links on the network —
	// and regenerates the same seeded burst.
	vals := make([]float64, len(cases)*2)
	err = forEachPoint(opt, len(vals), func(i int) error {
		sc := cases[i/2]
		rig, err := newIORig(shape, rpn, opt.EngineHook)
		if err != nil {
			return err
		}
		data := workload.Uniform(rig.job.NumRanks(), eightMB, int64(cores))
		var sink ionet.Sink // nil: devnull
		if sc.servers > 0 {
			st, err := storage.Build(rig.net, rig.ios, sc.servers)
			if err != nil {
				return err
			}
			sink = st
		}
		gbps, err := aggThroughput(rig, data, i%2 == 0, sink)
		if err != nil {
			return err
		}
		vals[i] = gbps
		return nil
	})
	if err != nil {
		return res, err
	}
	for ci, sc := range cases {
		res.Rows = append(res.Rows, ExtStorageRow{
			Sink:        sc.name,
			OursGBps:    vals[ci*2],
			DefaultGBps: vals[ci*2+1],
		})
	}
	return res, nil
}

// ExtMappingResult compares rank mappings: the same rank-indexed burst
// under the default block mapping versus a round-robin mapping.
type ExtMappingResult struct {
	Cores int
	Rows  []ExtMappingRow
}

// ExtMappingRow is one (mapping, approach) outcome.
type ExtMappingRow struct {
	Mapping  string
	Workload string
	OursGBps float64
	DefGBps  float64
}

// ExtMapping runs E2 with the HACC window burst, whose placement is the
// most mapping-sensitive (contiguous ranks).
func ExtMapping(opt Options) (ExtMappingResult, error) {
	p := netsim.DefaultParams()
	cores := 16384
	if opt.Quick {
		cores = 8192
	}
	shape, err := ShapeForCores(cores)
	if err != nil {
		return ExtMappingResult{}, err
	}
	res := ExtMappingResult{Cores: cores}
	mappings := []mpisim.MapOrder{"ABCDET", "TABCDE"}
	// Four self-contained points: (mapping) x (ours, default), each with
	// its own mapped rig.
	vals := make([]float64, len(mappings)*2)
	err = forEachPoint(opt, len(vals), func(i int) error {
		mapping := mappings[i/2]
		tor, err := torus.New(shape)
		if err != nil {
			return err
		}
		net := netsim.NewNetwork(tor, p.LinkBandwidth)
		ios, err := ionet.Build(net)
		if err != nil {
			return err
		}
		job, err := mpisim.NewJobWithMapping(tor, 16, mapping)
		if err != nil {
			return err
		}
		rig := &ioRig{tor: tor, net: net, ios: ios, job: job, p: p}
		data := workload.HACC(job.NumRanks(), haccParticlesPerWriter)
		gbps, err := aggThroughput(rig, data, i%2 == 0, nil)
		if err != nil {
			return err
		}
		vals[i] = gbps
		return nil
	})
	if err != nil {
		return res, err
	}
	for mi, mapping := range mappings {
		res.Rows = append(res.Rows, ExtMappingRow{
			Mapping:  string(mapping),
			Workload: "hacc",
			OursGBps: vals[mi*2],
			DefGBps:  vals[mi*2+1],
		})
	}
	return res, nil
}

// ExtPipelineResult demonstrates the paper's future-work pipelining:
// with chunked store-and-forward, k=2 proxies beat direct transfer.
type ExtPipelineResult struct {
	Shape   torus.Shape
	Direct  Curve
	PlainK2 Curve
	PipedK2 Curve
	PipedK4 Curve
}

// ExtPipeline runs E3 on the Fig. 5 geometry.
func ExtPipeline(opt Options) (ExtPipelineResult, error) {
	shape := torus.Shape{2, 2, 4, 4, 2}
	tor, err := torus.New(shape)
	if err != nil {
		return ExtPipelineResult{}, err
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	res := ExtPipelineResult{
		Shape:   shape,
		Direct:  Curve{Name: "direct"},
		PlainK2: Curve{Name: "k=2 plain"},
		PipedK2: Curve{Name: "k=2 pipelined"},
		PipedK4: Curve{Name: "k=4 pipelined"},
	}
	sizes := messageSizes(opt.Quick)
	if opt.Quick {
		// The 64 MB point dominates the quick sweep (pipelined k=4 at 1 MB
		// chunks is hundreds of dependent flows); the remaining sizes keep
		// the pipelining crossover visible.
		sizes = []int64{16 << 10, 256 << 10, 4 << 20}
	}
	// Four configurations per size, flattened into independent points.
	cfgs := []core.ProxyConfig{{Proxies: -1}, {Proxies: 2}, {Proxies: 2, Pipeline: true}, {Proxies: 4, Pipeline: true}}
	vals := make([]float64, len(sizes)*len(cfgs))
	err = forEachPoint(opt, len(vals), func(i int) error {
		size := sizes[i/len(cfgs)]
		th, _, err := runPair(tor, cfgs[i%len(cfgs)], src, dst, size, opt.EngineHook)
		if err != nil {
			return err
		}
		vals[i] = th
		return nil
	})
	if err != nil {
		return res, err
	}
	for si, size := range sizes {
		res.Direct.Points = append(res.Direct.Points, CurvePoint{size, vals[si*4+0] / 1e9})
		res.PlainK2.Points = append(res.PlainK2.Points, CurvePoint{size, vals[si*4+1] / 1e9})
		res.PipedK2.Points = append(res.PipedK2.Points, CurvePoint{size, vals[si*4+2] / 1e9})
		res.PipedK4.Points = append(res.PipedK4.Points, CurvePoint{size, vals[si*4+3] / 1e9})
	}
	return res, nil
}

// ExtValidationResult cross-validates flow-level vs packet-level models.
type ExtValidationResult struct {
	Rows []ExtValidationRow
}

// ExtValidationRow is one scenario's agreement check.
type ExtValidationRow struct {
	Scenario   string
	Bytes      int64
	FlowGBps   float64
	PacketGBps float64
	// DiffPct is |flow - packet| / flow in percent.
	DiffPct float64
}

// ExtValidation runs E4 on the Fig. 5 geometry.
func ExtValidation(opt Options) (ExtValidationResult, error) {
	flowP := netsim.DefaultParams()
	tor, err := torus.New(torus.Shape{2, 2, 4, 4, 2})
	if err != nil {
		return ExtValidationResult{}, err
	}
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	pl, err := core.NewPairPlanner(tor, core.ProxyConfig{Proxies: 4})
	if err != nil {
		return ExtValidationResult{}, err
	}
	proxies := pl.SelectProxies(src, dst)

	sizes := []int64{1 << 20, 8 << 20, 32 << 20}
	if opt.Quick {
		// Packet-level cost scales with bytes simulated; a single 1 MB
		// point per scenario keeps the cross-model agreement check alive
		// in the smoke run.
		sizes = []int64{1 << 20}
	}
	var res ExtValidationResult
	rows := make([]ExtValidationRow, 2*len(sizes))
	err = forEachPoint(opt, len(rows), func(i int) error {
		proxied := i/len(sizes) == 1
		bytes := sizes[i%len(sizes)]
		// Flow model.
		e, err := newEngine(tor, opt.EngineHook)
		if err != nil {
			return err
		}
		if !proxied {
			e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes})
		} else {
			per := bytes / int64(len(proxies))
			for _, pr := range proxies {
				l1 := e.Submit(netsim.FlowSpec{Src: src, Dst: pr.Proxy, Bytes: per, Links: pr.Leg1.Links})
				e.Submit(netsim.FlowSpec{Src: pr.Proxy, Dst: dst, Bytes: per, Links: pr.Leg2.Links,
					DependsOn: []netsim.FlowID{l1}, ExtraDelay: flowP.ProxyForwardOverhead})
			}
		}
		fmk, err := e.Run()
		if err != nil {
			return err
		}
		addSimTime(fmk)
		// Packet model, under the same calibration.
		s, err := packetsim.New(tor, flowP, 3)
		if err != nil {
			return err
		}
		if !proxied {
			s.Submit(packetsim.MessageSpec{Src: src, Dst: dst, Bytes: bytes, Zone: routing.ZoneDeterministic})
		} else {
			per := bytes / int64(len(proxies))
			for _, pr := range proxies {
				m1 := s.Submit(packetsim.MessageSpec{Src: src, Dst: pr.Proxy, Bytes: per, Links: pr.Leg1.Links})
				s.Submit(packetsim.MessageSpec{Src: pr.Proxy, Dst: dst, Bytes: per, Links: pr.Leg2.Links,
					DependsOn: []packetsim.MessageID{m1}, ExtraDelay: flowP.ProxyForwardOverhead})
			}
		}
		pmk, err := s.Run()
		if err != nil {
			return err
		}
		fth := netsim.Throughput(bytes, fmk) / 1e9
		pth := netsim.Throughput(bytes, pmk) / 1e9
		name := "direct"
		if proxied {
			name = "4 proxies"
		}
		diff := (fth - pth) / fth * 100
		if diff < 0 {
			diff = -diff
		}
		rows[i] = ExtValidationRow{
			Scenario: name, Bytes: bytes,
			FlowGBps: fth, PacketGBps: pth, DiffPct: diff,
		}
		return nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	return res, nil
}

// ExtInsituResult runs the Fig. 10 comparison on bursts produced by a
// real in-situ analysis (threshold extraction over a synthetic field)
// instead of synthetic per-rank size distributions.
type ExtInsituResult struct {
	Rows []ExtInsituRow
}

// ExtInsituRow is one scale's outcome.
type ExtInsituRow struct {
	Cores         int
	BurstGB       float64
	RanksWithData float64 // fraction
	OursGBps      float64
	DefaultGBps   float64
}

// insituRankGrids factorizes the rank count into the 3-D process grids
// the field decomposition uses.
var insituRankGrids = map[int][3]int{
	2048:  {16, 16, 8},
	8192:  {32, 16, 16},
	32768: {32, 32, 32},
}

// ExtInsitu runs E5: organically sparse bursts from threshold analysis.
func ExtInsitu(opt Options) (ExtInsituResult, error) {
	scales := []int{2048, 8192, 32768}
	if opt.Quick {
		scales = []int{2048}
	}
	const subBlockBytes = 32 << 10
	const threshold = 0.35
	var res ExtInsituResult
	// Two self-contained points per scale: (ours, default), each with its
	// own rig and its own deterministic field synthesis.
	rows := make([]ExtInsituRow, len(scales)*2)
	err := forEachPoint(opt, len(rows), func(i int) error {
		cores := scales[i/2]
		shape, err := ShapeForCores(cores)
		if err != nil {
			return err
		}
		rig, err := newIORig(shape, 16, opt.EngineHook)
		if err != nil {
			return err
		}
		g := insituRankGrids[cores]
		// Cells per rank: 6^3 in the full run; 5^3 in quick mode, where
		// synthesizing the field twice (ours + default point) would
		// otherwise dominate the runner.
		mult := 6
		if opt.Quick {
			mult = 5
		}
		grid, err := field.NewGrid(mult*g[0], mult*g[1], mult*g[2], g[0], g[1], g[2])
		if err != nil {
			return err
		}
		fld, err := field.Synthesize(grid, 6, int64(cores))
		if err != nil {
			return err
		}
		data := fld.ExtractSizes(threshold, subBlockBytes)
		if len(data) != rig.job.NumRanks() {
			return fmt.Errorf("experiments: field grid yields %d ranks, job has %d", len(data), rig.job.NumRanks())
		}
		withData, _ := field.Sparsity(data, grid.CellsPerRank(), subBlockBytes)
		row := ExtInsituRow{
			Cores:         cores,
			BurstGB:       float64(workload.Total(data)) / 1e9,
			RanksWithData: withData,
		}
		gbps, err := aggThroughput(rig, data, i%2 == 0, nil)
		if err != nil {
			return err
		}
		if i%2 == 0 {
			row.OursGBps = gbps
		} else {
			row.DefaultGBps = gbps
		}
		rows[i] = row
		return nil
	})
	if err != nil {
		return res, err
	}
	for ci := range scales {
		row := rows[ci*2]
		row.DefaultGBps = rows[ci*2+1].DefaultGBps
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}
