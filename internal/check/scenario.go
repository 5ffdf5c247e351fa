package check

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"

	"bgqflow/internal/routing"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// ExtraLink is a scenario's registered non-torus link (the bridge-to-ION
// 11th-link idiom).
type ExtraLink struct {
	From     int     `json:"from"`
	Capacity float64 `json:"capacity"`
}

// ScenarioFlow is one flow of a scenario, in engine-neutral form.
type ScenarioFlow struct {
	Src        int     `json:"src"`
	Dst        int     `json:"dst"`
	Bytes      int64   `json:"bytes"`
	Links      []int   `json:"links"`
	HasLinks   bool    `json:"has_links"`
	Deps       []int   `json:"deps,omitempty"`
	ExtraDelay float64 `json:"extra_delay,omitempty"`
}

// LinkFailure schedules one link to die mid-run.
type LinkFailure struct {
	Link int     `json:"link"`
	At   float64 `json:"at"`
}

// NodeFailure schedules one node to die mid-run.
type NodeFailure struct {
	Node int     `json:"node"`
	At   float64 `json:"at"`
}

// Scenario is one differential test case: a fabric, machine constants, a
// flow DAG, and a fault campaign. Scenarios serialize to JSON so a
// divergence found by the fuzzer replays byte-identically from
// testdata/divergences (see EXPERIMENTS.md).
//
// The BG/Q-default compatibility rule (DESIGN.md §16): an empty Topology
// means "the torus described by Shape", so every pre-topology scenario
// and every archived divergence replays byte-identically.
type Scenario struct {
	Seed  int64 `json:"seed"`
	Shape []int `json:"shape,omitempty"`
	// Topology is a topo.Parse spec ("dragonfly:6x4x2"); empty selects
	// the torus built from Shape.
	Topology     string         `json:"topology,omitempty"`
	Params       RefParams      `json:"params"`
	Extra        []ExtraLink    `json:"extra,omitempty"`
	Flows        []ScenarioFlow `json:"flows"`
	LinkFailures []LinkFailure  `json:"link_failures,omitempty"`
	NodeFailures []NodeFailure  `json:"node_failures,omitempty"`
}

// fabric builds the scenario's topology: the Topology spec when set,
// else the torus described by Shape.
func (sc Scenario) fabric() (topo.Topology, error) {
	if sc.Topology != "" {
		tp, err := topo.Parse(sc.Topology)
		if err != nil {
			return nil, fmt.Errorf("check: scenario topology: %w", err)
		}
		return tp, nil
	}
	tor, err := torus.New(torus.Shape(sc.Shape))
	if err != nil {
		return nil, fmt.Errorf("check: scenario shape %v: %w", sc.Shape, err)
	}
	return topo.NewTorus(tor), nil
}

// genShapes are the generator's torus geometries: every dimension count
// the routing layer distinguishes (2–5 dims), odd and even extents, all
// small enough that the O(flows²·links) reference engine stays fast.
var genShapes = [][]int{
	{2, 2, 2},
	{3, 2, 2},
	{3, 3, 3},
	{4, 4, 2},
	{2, 4, 4},
	{2, 2, 4, 2},
	{2, 2, 2, 2, 2},
	{2, 2, 4, 4},
}

// Generate builds the scenario for one seed. The same seed always
// produces the same scenario (the generator only draws from its own
// seeded source), which is what lets a fuzz finding be archived as just
// a seed. The axes follow the paper's evaluation: torus shape, sparse
// communication pattern (which pairs talk, with what routes), message
// size (zero-byte synchronization points up to multi-MB bursts), and a
// fault campaign.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}
	sc.Shape = append([]int(nil), genShapes[rng.Intn(len(genShapes))]...)
	tor, err := torus.New(torus.Shape(sc.Shape))
	if err != nil {
		panic(fmt.Sprintf("check: generator shape %v: %v", sc.Shape, err))
	}
	sc.Params = drawParams(rng)
	// Explicit routes are dimension-ordered (the zone-routing idiom).
	links := drawFlowMix(rng, &sc, tor.Size(), tor.NumTorusLinks(), func(src, dst int) []int {
		r := routing.RouteWithOrder(tor, torus.NodeID(src), torus.NodeID(dst), rng.Perm(tor.Dims()))
		return append([]int{}, r.Links...)
	})
	drawFailures(rng, &sc, links, tor.Size(), 4, drawHorizon(rng))
	return sc
}

// drawParams draws a scenario's machine constants.
func drawParams(rng *rand.Rand) RefParams {
	lb := 1e9 + rng.Float64()*1e9
	return RefParams{
		LinkBandwidth:      lb,
		PerFlowBandwidth:   (0.5 + rng.Float64()) * lb,
		LocalCopyBandwidth: (4 + 8*rng.Float64()) * 1e9,
		SenderOverhead:     1e-6 + rng.Float64()*29e-6,
		ReceiverOverhead:   1e-6 + rng.Float64()*29e-6,
		HopLatency:         1e-9 + rng.Float64()*99e-9,
	}
}

// drawFlowMix draws up to two extra links and the flow mix of a small
// scenario on a fabric of size nodes and fabricLinks links, and returns
// the link count, extras included. Flows take default routes, make
// node-local copies, follow an explicit route (route(src, dst); src ==
// dst yields an explicit empty route), sometimes extended over an extra
// link the way ionet extends bridge routes, or occupy an arbitrary link
// multiset.
func drawFlowMix(rng *rand.Rand, sc *Scenario, size, fabricLinks int, route func(src, dst int) []int) int {
	for i, n := 0, rng.Intn(3); i < n; i++ {
		sc.Extra = append(sc.Extra, ExtraLink{
			From:     rng.Intn(size),
			Capacity: (0.5 + rng.Float64()) * sc.Params.LinkBandwidth,
		})
	}
	totalLinks := fabricLinks + len(sc.Extra)

	nFlows := 1 + rng.Intn(32)
	for i := 0; i < nFlows; i++ {
		f := ScenarioFlow{Src: rng.Intn(size), Dst: rng.Intn(size)}
		switch k := rng.Intn(10); {
		case k < 5:
			// Default route between distinct endpoints.
			if f.Src == f.Dst {
				f.Dst = (f.Dst + 1) % size
			}
		case k < 6:
			// Node-local copy.
			f.Dst = f.Src
		case k < 8:
			f.Links = route(f.Src, f.Dst)
			f.HasLinks = true
			if len(sc.Extra) > 0 && rng.Intn(2) == 0 {
				f.Links = append(f.Links, fabricLinks+rng.Intn(len(sc.Extra)))
			}
		default:
			// Arbitrary link multiset, sampled with replacement: the engine
			// must treat a flow's route as a set of occupied links, so
			// repeats must neither double capacity demand nor byte charges.
			m := 1 + rng.Intn(6)
			f.Links = make([]int, 0, m)
			for j := 0; j < m; j++ {
				f.Links = append(f.Links, rng.Intn(totalLinks))
			}
			f.HasLinks = true
		}
		if rng.Intn(10) == 0 {
			f.Bytes = 0
		} else {
			// Log-uniform in [1 B, 8 MB].
			f.Bytes = 1 + int64(math.Exp(rng.Float64()*math.Log(8<<20)))
		}
		if i > 0 && rng.Intn(10) < 3 {
			for d, nd := 0, 1+rng.Intn(2); d < nd; d++ {
				if dep := rng.Intn(i); !slices.Contains(f.Deps, dep) {
					f.Deps = append(f.Deps, dep)
				}
			}
		}
		if rng.Intn(10) < 3 {
			f.ExtraDelay = rng.Float64() * 50e-6
		}
		sc.Flows = append(sc.Flows, f)
	}
	return totalLinks
}

// drawHorizon draws a small scenario's fault horizon: failure instants
// are continuous draws, so they almost surely never tie with flow
// events, and the horizon is log-uniform from "before anything
// activates" to "well past most makespans".
func drawHorizon(rng *rand.Rand) float64 {
	return math.Exp(math.Log(2e-4) + rng.Float64()*math.Log(50e-3/2e-4))
}

// drawFailures draws a fault campaign before horizon: fewer than
// maxLinks failures over links links, and one node failure in three.
func drawFailures(rng *rand.Rand, sc *Scenario, links, nodes, maxLinks int, horizon float64) {
	for i, n := 0, rng.Intn(maxLinks); i < n; i++ {
		sc.LinkFailures = append(sc.LinkFailures, LinkFailure{
			Link: rng.Intn(links),
			At:   rng.Float64() * horizon,
		})
	}
	if rng.Intn(3) == 0 {
		sc.NodeFailures = append(sc.NodeFailures, NodeFailure{
			Node: rng.Intn(nodes),
			At:   rng.Float64() * horizon,
		})
	}
}

// sparseShapes are the larger geometries GenerateSparse draws from: big
// enough that the incremental engine's dirty regions see real frontiers
// (hundreds of nodes, thousands of links), and already past what the
// O(flows²·links) reference engine can sweep in test time.
var sparseShapes = [][]int{
	{4, 4, 4, 2},
	{2, 4, 4, 4, 2},
	{4, 4, 4, 4, 2},
	{8, 4, 4, 4},
}

// GenerateSparse builds a bigger, sparser scenario for one seed: a few
// hundred mostly-neighborhood flows with jittered release times on a
// medium torus — the regime the incremental waterfill's cutoff targets
// (most links unsaturated, changes local). The same determinism contract
// as Generate holds. Used by the sparse differential suite
// (TestDifferentialSparseSeeds).
func GenerateSparse(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed5eed))
	sc := Scenario{Seed: seed}
	sc.Shape = append([]int(nil), sparseShapes[rng.Intn(len(sparseShapes))]...)
	tor, err := torus.New(torus.Shape(sc.Shape))
	if err != nil {
		panic(fmt.Sprintf("check: generator shape %v: %v", sc.Shape, err))
	}
	size := tor.Size()
	sc.Params = drawParams(rng)

	nFlows := 150 + rng.Intn(250)
	for i := 0; i < nFlows; i++ {
		src := rng.Intn(size)
		var dst int
		if rng.Intn(10) < 7 {
			// Neighborhood exchange: a small node-index shift, the sparse
			// halo pattern the paper's workloads exhibit.
			dst = (src + 1 + rng.Intn(7)) % size
		} else {
			// Long-haul stragglers keep some routes crossing the machine.
			dst = rng.Intn(size)
			if dst == src {
				dst = (dst + size/2) % size
			}
		}
		f := ScenarioFlow{Src: src, Dst: dst}
		// Log-uniform in [1 KB, 4 MB]; zero-byte syncs stay rare.
		if rng.Intn(20) == 0 {
			f.Bytes = 0
		} else {
			f.Bytes = 1 << 10 << uint(rng.Intn(13))
		}
		if i > 0 && rng.Intn(10) == 0 {
			f.Deps = append(f.Deps, rng.Intn(i))
		}
		// Jittered releases spread activations over many distinct
		// instants, so sweeps see small dirty sets instead of one
		// everything-at-t0 component.
		f.ExtraDelay = rng.Float64() * 2e-3
		sc.Flows = append(sc.Flows, f)
	}
	drawFailures(rng, &sc, tor.NumTorusLinks(), size, 6, 3e-3)
	return sc
}

// genTopoSpecs are the non-torus fabrics GenerateTopo draws from: small
// enough for the reference engine, varied across family, rail count, and
// gateway pressure.
var genTopoSpecs = []string{
	"dragonfly:4x4x1",
	"dragonfly:6x4x2",
	"dragonfly:4x8x1",
	"fattree:8x4x1",
	"fattree:16x4x2",
	"fattree:8x2x3",
}

// GenerateTopo builds the scenario for one seed on a non-torus topology
// (the topology axis of the differential suite). Flow kinds mirror
// Generate; an explicit route is the topology's own oracle path.
// Determinism contract as Generate.
func GenerateTopo(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed ^ 0x70705eed))
	sc := Scenario{Seed: seed}
	sc.Topology = genTopoSpecs[rng.Intn(len(genTopoSpecs))]
	tp, err := topo.Parse(sc.Topology)
	if err != nil {
		panic(fmt.Sprintf("check: generator topology %q: %v", sc.Topology, err))
	}
	sc.Params = drawParams(rng)
	// The retired cost-model axis's draws: every seed keeps its scenario.
	if rng.Intn(3) == 0 {
		rng.Intn(4)
	}
	links := drawFlowMix(rng, &sc, tp.NumNodes(), tp.NumLinks(), func(src, dst int) []int {
		return append([]int{}, tp.Route(torus.NodeID(src), torus.NodeID(dst))...)
	})
	drawFailures(rng, &sc, links, tp.NumNodes(), 4, drawHorizon(rng))
	return sc
}

// WriteScenario archives a scenario as indented JSON.
func WriteScenario(path string, sc Scenario) error {
	b, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadScenario loads an archived scenario.
func ReadScenario(path string) (Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, err
	}
	var sc Scenario
	if err := json.Unmarshal(b, &sc); err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}
