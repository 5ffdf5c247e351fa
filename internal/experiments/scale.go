package experiments

import (
	"math/rand"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// MiraShape is the full Mira partition: a 5D torus of 48K compute nodes
// (8x12x16x16x2 = 49,152). The incremental waterfill (DESIGN.md §13) is
// what makes a flow-level simulation at this scale tractable: the
// machine has ~half a million torus links, and a global re-level per
// event would make every activation O(links).
var MiraShape = torus.Shape{8, 12, 16, 16, 2}

// ScaleRanks is the rank count of the scale scenario: one communicating
// rank per 6 cores of the 786,432-core machine, the paper's largest
// weak-scaling point doubled twice.
const ScaleRanks = 131072

// ScaleResult reports the full-machine sparse-pattern run.
type ScaleResult struct {
	Shape   torus.Shape
	Nodes   int
	Ranks   int
	Done    int
	Aborted int
	// TotalGB is the volume submitted across all flows.
	TotalGB float64
	// SimSeconds is the run's makespan in simulated time; GBps is the
	// aggregate delivered throughput over it.
	SimSeconds float64
	GBps       float64
	// FullSweeps / IncSweeps are the engine's sweep counters: the whole
	// point of the scenario is IncSweeps >> FullSweeps.
	FullSweeps int64
	IncSweeps  int64
}

// scaleGeometry picks the scenario size: the full machine, or a small
// partition in quick mode — `make check` attaches an O(flows·links)
// auditor to every engine, so the quick point must stay cheap.
func scaleGeometry(quick bool) (torus.Shape, int) {
	if quick {
		return torus.Shape{4, 4, 4, 16, 2}, 8192
	}
	return MiraShape, ScaleRanks
}

// ScaleSparse runs the tentpole scenario: every rank sends one sparse-
// pattern message — mostly a halo exchange to a nearby rank, a tail of
// long-haul stragglers — with jittered release times spreading the
// activations over many distinct instants, plus a small link-failure
// campaign. The pattern mirrors the check package's GenerateSparse at
// full machine scale; correctness of the incremental engine against the
// reference engine is pinned there, so this runner only reports
// throughput and sweep statistics.
func ScaleSparse(opt Options) (ScaleResult, error) {
	shape, ranks := scaleGeometry(opt.Quick)
	tor, err := torus.New(shape)
	if err != nil {
		return ScaleResult{}, err
	}
	p := netsim.DefaultParams()
	e, err := newEngine(tor, p, opt.EngineHook)
	if err != nil {
		return ScaleResult{}, err
	}
	nodes := tor.Size()
	res := ScaleResult{Shape: shape, Nodes: nodes, Ranks: ranks}

	// The release jitter window: tight enough that tens of thousands of
	// flows are in flight at once — overlapping halo routes then chain
	// into machine-spanning flow-sharing components, the regime where a
	// global re-level pays O(component) per event and the dirty-set
	// cutoff is what keeps the simulation tractable.
	const jitter = 2e-3
	rng := rand.New(rand.NewSource(int64(ranks)))
	e.Reserve(ranks)
	var total int64
	scratch := make(torus.Coord, tor.Dims())
	for r := 0; r < ranks; r++ {
		src := torus.NodeID(r % nodes)
		var dst torus.NodeID
		if rng.Intn(10) < 7 {
			// Halo exchange: a short straight run along one dimension, so
			// neighboring senders' routes overlap link-for-link.
			tor.CoordInto(src, scratch)
			d := rng.Intn(tor.Dims())
			scratch[d] += 1 + rng.Intn(3)
			dst = tor.ID(scratch) // ID wraps out-of-range coordinates
		} else {
			// Long-haul stragglers keep some routes crossing the machine.
			dst = torus.NodeID(rng.Intn(nodes))
		}
		if dst == src {
			dst = (dst + 1) % torus.NodeID(nodes)
		}
		// Log-uniform 256 KB .. 2 MB.
		bytes := int64(256<<10) << uint(rng.Intn(4))
		total += bytes
		e.Submit(netsim.FlowSpec{
			Src: src, Dst: dst, Bytes: bytes,
			ExtraDelay: sim.Duration(rng.Float64() * jitter),
		})
	}
	// A sprinkle of mid-run link failures keeps the fault path honest at
	// scale without dominating the outcome.
	nFail := 8
	if opt.Quick {
		nFail = 2
	}
	for i := 0; i < nFail; i++ {
		e.FailLinkAt(rng.Intn(tor.NumTorusLinks()), sim.Time(rng.Float64()*jitter))
	}

	mk, err := e.Run()
	if err != nil {
		return ScaleResult{}, err
	}
	addSimTime(mk)
	res.Done, res.Aborted = e.Outcomes()
	res.TotalGB = float64(total) / 1e9
	res.SimSeconds = float64(mk)
	if res.SimSeconds > 0 {
		res.GBps = res.TotalGB / res.SimSeconds
	}
	res.FullSweeps, res.IncSweeps = e.SweepStats()
	return res, nil
}
