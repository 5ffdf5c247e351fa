package experiments

import (
	"bgqflow/internal/collio"
	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/workload"
)

const eightMB = 8 << 20

// Fig8 reproduces the Pattern 1 histogram: 1,024 ranks with sizes drawn
// uniformly from [0, 8MB].
func Fig8(seed int64) workload.Histogram {
	return workload.NewHistogram(workload.Uniform(1024, eightMB, seed), 16, eightMB)
}

// Fig9 reproduces the Pattern 2 histogram: 1,024 ranks with
// Pareto-distributed sizes in [0, 8MB].
func Fig9(seed int64) workload.Histogram {
	return workload.NewHistogram(workload.Pattern2(1024, eightMB, seed), 16, eightMB)
}

// ScalePoint is one weak-scaling sample.
type ScalePoint struct {
	Cores int
	GBps  float64
}

// ScaleCurve is a named weak-scaling series.
type ScaleCurve struct {
	Name   string
	Points []ScalePoint
}

// Fig10Result reproduces "Aggregation throughputs on Mira": weak scaling
// of the aggregation throughput to the I/O nodes for the two sparse
// patterns, topology-aware dynamic aggregation versus default MPI
// collective I/O.
type Fig10Result struct {
	OursP1    ScaleCurve
	OursP2    ScaleCurve
	DefaultP1 ScaleCurve
	DefaultP2 ScaleCurve
}

// fig10Scales trims the sweep in quick mode: two scales keep the
// weak-scaling shape visible while the smoke run stays in the hundreds
// of milliseconds.
func fig10Scales(quick bool) []int {
	if quick {
		return []int{2048, 4096}
	}
	out := make([]int, 0, len(WeakScalingShapes))
	for _, ws := range WeakScalingShapes {
		out = append(out, ws.Cores)
	}
	return out
}

// aggThroughput runs one aggregation burst and returns GB/s including
// metadata costs.
func aggThroughput(rig *ioRig, data []int64, ours bool) (float64, error) {
	e, err := rig.engine()
	if err != nil {
		return 0, err
	}
	var total int64
	var meta float64
	if ours {
		pl, err := core.NewAggPlanner(rig.ios, rig.job, rig.p, core.DefaultAggConfig())
		if err != nil {
			return 0, err
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			return 0, err
		}
		total, meta = plan.TotalBytes, float64(plan.Metadata)
	} else {
		pl, err := collio.NewPlanner(rig.ios, rig.job, rig.p, collio.DefaultConfig())
		if err != nil {
			return 0, err
		}
		plan, err := pl.Plan(e, data)
		if err != nil {
			return 0, err
		}
		total, meta = plan.TotalBytes, float64(plan.Metadata)
	}
	mk, err := e.Run()
	if err != nil {
		return 0, err
	}
	addSimTime(mk)
	return float64(total) / (float64(mk) + meta) / 1e9, nil
}

// Fig10 runs the weak-scaling aggregation comparison.
func Fig10(opt Options) (Fig10Result, error) {
	p := netsim.DefaultParams()
	res := Fig10Result{
		OursP1:    ScaleCurve{Name: "Our approach: Pattern 1"},
		OursP2:    ScaleCurve{Name: "Our approach: Pattern 2"},
		DefaultP1: ScaleCurve{Name: "MPI Collective IO: Pattern 1"},
		DefaultP2: ScaleCurve{Name: "MPI Collective IO: Pattern 2"},
	}
	scales := fig10Scales(opt.Quick)
	// Four runs per scale — (ours, default) x (pattern 1, pattern 2) —
	// each a self-contained point with its own rig so every run can
	// proceed concurrently. Workload seeds depend only on the core count,
	// so regenerating per point reproduces the sequential inputs exactly.
	vals := make([]float64, len(scales)*4)
	err := forEachPoint(opt, len(vals), func(i int) error {
		cores := scales[i/4]
		run := i % 4 // 0: ours/P1, 1: ours/P2, 2: default/P1, 3: default/P2
		shape, err := ShapeForCores(cores)
		if err != nil {
			return err
		}
		rig, err := newIORig(shape, 16, p, opt.EngineHook)
		if err != nil {
			return err
		}
		n := rig.job.NumRanks()
		var data []int64
		if run%2 == 0 {
			data = workload.Uniform(n, eightMB, int64(cores))
		} else {
			data = workload.Pattern2(n, eightMB, int64(cores)+1)
		}
		gbps, err := aggThroughput(rig, data, run < 2)
		if err != nil {
			return err
		}
		vals[i] = gbps
		return nil
	})
	if err != nil {
		return res, err
	}
	for ci, cores := range scales {
		res.OursP1.Points = append(res.OursP1.Points, ScalePoint{cores, vals[ci*4+0]})
		res.OursP2.Points = append(res.OursP2.Points, ScalePoint{cores, vals[ci*4+1]})
		res.DefaultP1.Points = append(res.DefaultP1.Points, ScalePoint{cores, vals[ci*4+2]})
		res.DefaultP2.Points = append(res.DefaultP2.Points, ScalePoint{cores, vals[ci*4+3]})
	}
	return res, nil
}

// Fig11Result reproduces the HACC I/O application benchmark: write
// throughput to the I/O nodes, customized aggregator selection versus
// default MPI collective I/O, 8,192 to 131,072 cores.
type Fig11Result struct {
	Ours    ScaleCurve
	Default ScaleCurve
	// BurstGB records the burst size at each scale.
	BurstGB []float64
}

// haccParticlesPerWriter weak-scales the paper's 2 GB - 85 GB burst
// range: each writer holds ~6.5 MB of particle records.
const haccParticlesPerWriter = 171_000

func fig11Scales(quick bool) []int {
	if quick {
		return []int{8192}
	}
	return []int{8192, 16384, 32768, 65536, 131072, 262144}
}

// Fig11 runs the HACC I/O comparison.
func Fig11(opt Options) (Fig11Result, error) {
	p := netsim.DefaultParams()
	res := Fig11Result{
		Ours:    ScaleCurve{Name: "Customized selection of aggregators"},
		Default: ScaleCurve{Name: "Default MPI collective I/O"},
	}
	scales := fig11Scales(opt.Quick)
	type point struct{ gbps, burstGB float64 }
	vals := make([]point, len(scales)*2)
	err := forEachPoint(opt, len(vals), func(i int) error {
		cores := scales[i/2]
		shape, err := ShapeForCores(cores)
		if err != nil {
			return err
		}
		rig, err := newIORig(shape, 16, p, opt.EngineHook)
		if err != nil {
			return err
		}
		data := workload.HACC(rig.job.NumRanks(), haccParticlesPerWriter)
		gbps, err := aggThroughput(rig, data, i%2 == 0)
		if err != nil {
			return err
		}
		vals[i] = point{gbps, float64(workload.Total(data)) / 1e9}
		return nil
	})
	if err != nil {
		return res, err
	}
	for ci, cores := range scales {
		res.BurstGB = append(res.BurstGB, vals[ci*2].burstGB)
		res.Ours.Points = append(res.Ours.Points, ScalePoint{cores, vals[ci*2].gbps})
		res.Default.Points = append(res.Default.Points, ScalePoint{cores, vals[ci*2+1].gbps})
	}
	return res, nil
}
