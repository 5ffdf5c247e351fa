// Package experiments contains one runner per figure of the paper's
// evaluation (Figs. 5-11) plus the ablations listed in DESIGN.md. Each
// runner builds the paper's geometry, executes the workload on the
// flow-level simulator, and returns the same rows/series the paper
// plots. The bench harness (bench_test.go) and the bgqbench command both
// call these runners, so the numbers in EXPERIMENTS.md are reproducible
// from either entry point.
package experiments

import (
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/torus"
)

// Options configures a run.
type Options struct {
	// Quick trims sweeps (fewer sizes, smaller top scale) so the
	// testing.B benchmarks finish fast; the bgqbench command runs full
	// sweeps.
	Quick bool
	// Parallel is the number of worker goroutines used to evaluate
	// independent sweep points. 0 (the default) means one per CPU; 1
	// forces sequential execution. Results are identical at any setting:
	// every point is self-contained and deterministic, and the runner
	// assembles results in index order.
	Parallel int
	// Obs, when non-nil, collects spans, instants, and metrics from the
	// runners that support it (currently R1): per-strategy engine sinks
	// produce flow spans and failure instants on tracks like
	// "r1/fail8/recovery", the recovery loop adds wave/replan spans,
	// and route-cache counters land in the recorder's registry. The
	// Recorder is safe to share across parallel sweep points. nil = off.
	Obs *obs.Recorder
	// EngineHook, when non-nil, runs on every netsim.Engine a runner
	// constructs — after construction, before any flow is submitted. The
	// bgqbench -check mode uses it to attach invariant auditors
	// (internal/check). Runners evaluate sweep points on parallel
	// workers, so the hook must be safe for concurrent use. An auditor
	// claims the engine's observability sink, so hooks that do the same
	// must not be combined with Obs (the r1 runner installs a sink per
	// engine when Obs is set).
	EngineHook func(*netsim.Engine)
}

// CurvePoint is one x/y sample of a throughput curve.
type CurvePoint struct {
	Bytes int64
	GBps  float64
}

// Curve is a named series of points.
type Curve struct {
	Name   string
	Points []CurvePoint
}

// messageSizes returns the paper's microbenchmark sweep: 1 KB to 128 MB,
// doubling.
func messageSizes(quick bool) []int64 {
	if quick {
		return []int64{16 << 10, 256 << 10, 4 << 20, 64 << 20}
	}
	var out []int64
	for s := int64(1 << 10); s <= 128<<20; s *= 2 {
		out = append(out, s)
	}
	return out
}

// newEngine builds a fresh engine over a fresh network for one run and
// applies the hook (usually Options.EngineHook; nil = none).
func newEngine(tor *torus.Torus, hook func(*netsim.Engine)) (*netsim.Engine, error) {
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err == nil && hook != nil {
		hook(e)
	}
	return e, err
}

// newIORig builds the network + I/O system + job for an I/O experiment.
type ioRig struct {
	tor  *torus.Torus
	net  *netsim.Network
	ios  *ionet.System
	job  *mpisim.Job
	p    netsim.Params
	hook func(*netsim.Engine)
}

func newIORig(shape torus.Shape, ranksPerNode int, hook func(*netsim.Engine)) (*ioRig, error) {
	p := netsim.DefaultParams()
	tor, err := torus.New(shape)
	if err != nil {
		return nil, err
	}
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	ios, err := ionet.Build(net)
	if err != nil {
		return nil, err
	}
	job, err := mpisim.NewJob(tor, ranksPerNode)
	if err != nil {
		return nil, err
	}
	return &ioRig{tor: tor, net: net, ios: ios, job: job, p: p, hook: hook}, nil
}

func (r *ioRig) engine() (*netsim.Engine, error) {
	e, err := netsim.NewEngine(r.net, r.p)
	if err == nil && r.hook != nil {
		r.hook(e)
	}
	return e, err
}

// WeakScalingShapes maps core counts to BG/Q partition geometries
// (16 application cores per node), covering the paper's 2,048 to 131,072
// core sweep plus a 262,144-core point (a 16K-node half-rack row beyond
// the paper's largest run) that the incremental waterfill (DESIGN.md
// §13) makes affordable in the default full sweep.
var WeakScalingShapes = []struct {
	Cores int
	Shape torus.Shape
}{
	{2048, torus.Shape{2, 2, 4, 4, 2}},
	{4096, torus.Shape{2, 4, 4, 4, 2}},
	{8192, torus.Shape{4, 4, 4, 4, 2}},
	{16384, torus.Shape{4, 4, 4, 8, 2}},
	{32768, torus.Shape{4, 4, 4, 16, 2}},
	{65536, torus.Shape{4, 4, 8, 16, 2}},
	{131072, torus.Shape{4, 8, 8, 16, 2}},
	{262144, torus.Shape{8, 8, 8, 16, 2}},
}

// ShapeForCores returns the partition geometry for a core count.
func ShapeForCores(cores int) (torus.Shape, error) {
	for _, ws := range WeakScalingShapes {
		if ws.Cores == cores {
			return ws.Shape, nil
		}
	}
	return nil, fmt.Errorf("experiments: no geometry for %d cores", cores)
}

// runPair executes a point-to-point transfer planned under cfg and
// returns throughput in bytes/second.
func runPair(tor *torus.Torus, cfg core.ProxyConfig, src, dst torus.NodeID, bytes int64, hook func(*netsim.Engine)) (float64, core.TransferMode, error) {
	e, err := newEngine(tor, hook)
	if err != nil {
		return 0, 0, err
	}
	pl, err := core.NewPairPlanner(tor, cfg)
	if err != nil {
		return 0, 0, err
	}
	plan, err := pl.PlanPair(e, src, dst, bytes)
	if err != nil {
		return 0, 0, err
	}
	mk, err := e.Run()
	if err != nil {
		return 0, 0, err
	}
	addSimTime(mk)
	return netsim.Throughput(bytes, mk), plan.Mode, nil
}
