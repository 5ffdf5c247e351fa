package serve

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/scenario"
	"bgqflow/internal/sim"
	"bgqflow/internal/stats"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
	"bgqflow/internal/trace"
)

// This file holds the daemon's wire types and the pure plan
// computations behind them. Every Compute* function is a deterministic
// function of (request, fault set): it turns the request into a
// scenario.Config, builds it with scenario.Build (the builder bgqsim
// runs) and serializes the outcome. Purity is what makes the plan cache
// and request coalescing sound — and what the e2e differential test
// pins: plans served under concurrency must be byte-identical to a
// direct single-threaded planner call.

// PairRequest asks for an Algorithm 1 point-to-point plan.
type PairRequest struct {
	// Shape is the partition geometry, e.g. "2x2x4x4x2". Ignored when
	// Topology is set.
	Shape string `json:"shape,omitempty"`
	// Topology selects a non-torus fabric by topo.Parse spec (e.g.
	// "dragonfly:8x8x2"). Empty means the torus described by Shape — the
	// BG/Q-default compatibility rule, so every pre-topology client keeps
	// getting byte-identical plans. Non-torus plans are direct-only: the
	// paper's proxy placement and the daemon's torus-shaped fault events
	// are 5D-torus constructs.
	Topology string `json:"topology,omitempty"`
	// Src and Dst are node IDs.
	Src int `json:"src"`
	Dst int `json:"dst"`
	// Bytes is the message size.
	Bytes int64 `json:"bytes"`
	// Proxies selects the mode: -1 forces direct, 0 uses the default
	// config (the paper's operating point), >0 forces up to that many
	// proxies (MinProxies 1, threshold 0) — the same convention as the
	// bgqsim scenario schema.
	Proxies int `json:"proxies"`
}

// maxFabricLinks bounds the fabric a request may name: every plan
// builds per-link state over it. Sequoia, the largest BG/Q, has 983,040
// torus links.
const maxFabricLinks = 1 << 21

// checkFabric rejects a fabric of the given kind and extents with more
// than maxFabricLinks directed links, before anything is built over it.
func checkFabric(kind string, dims []int) error {
	if topo.LinkCount(kind, dims, maxFabricLinks) > maxFabricLinks {
		return fmt.Errorf("serve: %s fabric %v has more than %d links", kind, dims, maxFabricLinks)
	}
	return nil
}

// checkTopology bounds the fabric of a topo.Parse spec.
func checkTopology(spec string) error {
	kind, dims, err := topo.ParseSpec(spec)
	if err != nil {
		return err
	}
	return checkFabric(kind, dims)
}

// parseShape parses a torus shape and bounds its fabric.
func parseShape(s string) (torus.Shape, error) {
	shape, err := torus.ParseShape(s)
	if err != nil {
		return nil, err
	}
	return shape, checkFabric("torus", shape)
}

// Validate rejects malformed requests before they reach a worker.
func (r PairRequest) Validate() error {
	var size int
	if r.Topology != "" {
		tp, err := topo.Parse(r.Topology)
		if err != nil {
			return err
		}
		if err := checkTopology(r.Topology); err != nil {
			return err
		}
		size = tp.NumNodes()
	} else {
		shape, err := parseShape(r.Shape)
		if err != nil {
			return err
		}
		size = shape.Size()
	}
	if r.Src < 0 || r.Src >= size || r.Dst < 0 || r.Dst >= size {
		return fmt.Errorf("serve: pair endpoints (%d,%d) outside fabric of %d nodes", r.Src, r.Dst, size)
	}
	if r.Bytes < 1 {
		return fmt.Errorf("serve: pair bytes %d must be >= 1", r.Bytes)
	}
	if r.Proxies < -1 {
		return fmt.Errorf("serve: proxies %d must be >= -1", r.Proxies)
	}
	return nil
}

// GroupRequest asks for a group-to-group coupling plan (Figs. 6-7).
type GroupRequest struct {
	Shape     string `json:"shape"`
	SrcOrigin []int  `json:"srcOrigin"`
	SrcExtent []int  `json:"srcExtent"`
	DstOrigin []int  `json:"dstOrigin"`
	DstExtent []int  `json:"dstExtent"`
	// Bytes is the per-pair message size.
	Bytes int64 `json:"bytes"`
	// Proxies: -1 direct, 0 auto-disjoint, >0 forced group count.
	Proxies int `json:"proxies"`
}

// Validate rejects malformed requests; box validity against the torus is
// checked at compute time (torus.NewBox).
func (r GroupRequest) Validate() error {
	if _, err := parseShape(r.Shape); err != nil {
		return err
	}
	if r.Bytes < 1 {
		return fmt.Errorf("serve: group bytes %d must be >= 1", r.Bytes)
	}
	if r.Proxies < -1 {
		return fmt.Errorf("serve: proxies %d must be >= -1", r.Proxies)
	}
	return nil
}

// AggRequest asks for an Algorithm 2 I/O aggregation plan for a seeded
// workload burst.
type AggRequest struct {
	Shape string `json:"shape"`
	// RanksPerNode defaults to 16.
	RanksPerNode int `json:"ranksPerNode"`
	// Mapping is the BG/Q rank map order (default ABCDET).
	Mapping string `json:"mapping"`
	// Workload is "pattern1", "pattern2", "dense", or "hacc".
	Workload string `json:"workload"`
	// MaxBytes is the per-rank maximum; defaults to 8 MB.
	MaxBytes int64 `json:"maxBytes"`
	// Seed makes the burst reproducible.
	Seed int64 `json:"seed"`
}

// Validate rejects malformed requests and fills defaults (the request is
// canonicalized so equal requests hash equal).
func (r *AggRequest) Validate() error {
	if _, err := parseShape(r.Shape); err != nil {
		return err
	}
	switch r.Workload {
	case "pattern1", "pattern2", "dense", "hacc":
	default:
		return fmt.Errorf("serve: unknown workload %q", r.Workload)
	}
	if r.RanksPerNode == 0 {
		r.RanksPerNode = 16
	}
	if r.RanksPerNode < 0 {
		return fmt.Errorf("serve: ranksPerNode %d", r.RanksPerNode)
	}
	if r.MaxBytes == 0 {
		r.MaxBytes = 8 << 20
	}
	if r.MaxBytes < 0 {
		return fmt.Errorf("serve: maxBytes %d", r.MaxBytes)
	}
	if r.Mapping == "" {
		r.Mapping = string(mpisim.DefaultMapOrder)
	}
	return nil
}

// FlowWire is one submitted flow: endpoints, size, and the resolved
// route (torus link IDs) — enough for a client to audit link-disjointness
// or fault avoidance.
type FlowWire struct {
	Src   int    `json:"src"`
	Dst   int    `json:"dst"`
	Bytes int64  `json:"bytes"`
	Links []int  `json:"links,omitempty"`
	Label string `json:"label,omitempty"`
}

// ProxyWire is one selected proxy with its two leg routes.
type ProxyWire struct {
	Proxy int   `json:"proxy"`
	Leg1  []int `json:"leg1"`
	Leg2  []int `json:"leg2"`
}

// PairPlan is the wire form of a served point-to-point plan.
type PairPlan struct {
	Mode string `json:"mode"`
	// Topology echoes the request's non-torus fabric spec; omitted for
	// torus plans (wire compatibility with pre-topology clients).
	Topology   string      `json:"topology,omitempty"`
	Proxies    []ProxyWire `json:"proxies,omitempty"`
	Bytes      int64       `json:"bytes"`
	Flows      []FlowWire  `json:"flows"`
	MakespanMS float64     `json:"makespanMS"`
	GBps       float64     `json:"gbps"`
}

// GroupPlan is the wire form of a served group-coupling plan.
type GroupPlan struct {
	Mode        string     `json:"mode"`
	Groups      []string   `json:"groups,omitempty"`
	PairCount   int        `json:"pairCount"`
	DirectPairs int        `json:"directPairs"`
	TotalBytes  int64      `json:"totalBytes"`
	Flows       int        `json:"flows"`
	MakespanMS  float64    `json:"makespanMS"`
	GBps        float64    `json:"gbps"`
	FlowSpecs   []FlowWire `json:"flowSpecs,omitempty"`
}

// AggWire is one selected aggregator.
type AggWire struct {
	Node   int `json:"node"`
	Pset   int `json:"pset"`
	Bridge int `json:"bridge"`
}

// AggPlan is the wire form of a served I/O aggregation plan.
type AggPlan struct {
	TotalBytes      int64     `json:"totalBytes"`
	AggPerPset      int       `json:"aggPerPset"`
	NumAggregators  int       `json:"numAggregators"`
	Senders         int       `json:"senders"`
	Aggregators     []AggWire `json:"aggregators,omitempty"`
	MetadataMS      float64   `json:"metadataMS"`
	MakespanMS      float64   `json:"makespanMS"`
	GBps            float64   `json:"gbps"`
	UplinkImbalance float64   `json:"uplinkImbalance"`
}

// SimResult is the wire form of a full scenario run (bgqsim's output,
// minus the trace, which is too large to cache and serve).
type SimResult struct {
	Mode            string   `json:"mode"`
	GBps            float64  `json:"gbps"`
	MakespanMS      float64  `json:"makespanMS"`
	UplinkImbalance float64  `json:"uplinkImbalance,omitempty"`
	Notes           []string `json:"notes,omitempty"`
}

// flowWires serializes every flow submitted to the engine, in submission
// order, with its resolved route.
func flowWires(e *netsim.Engine) []FlowWire {
	out := make([]FlowWire, e.NumFlows())
	for id := 0; id < e.NumFlows(); id++ {
		spec := e.Spec(netsim.FlowID(id))
		out[id] = FlowWire{
			Src:   int(spec.Src),
			Dst:   int(spec.Dst),
			Bytes: spec.Bytes,
			Links: e.FlowRouteLinks(netsim.FlowID(id)),
			Label: spec.Label,
		}
	}
	return out
}

// ComputePair plans one point-to-point transfer and simulates it.
func ComputePair(req PairRequest, faults []scenario.FailLink) (PairPlan, error) {
	return computePair(req, faults, nil)
}

// computePair is ComputePair recording its fault reads in reads. Off the
// torus the daemon's faults do not apply and the plan is direct: the
// proxy ladder is torus-specific, so a request forcing proxies there is
// rejected rather than silently downgraded.
func computePair(req PairRequest, faults []scenario.FailLink, reads *planReads) (PairPlan, error) {
	if err := req.Validate(); err != nil {
		return PairPlan{}, err
	}
	if req.Topology != "" && req.Proxies > 0 {
		return PairPlan{}, fmt.Errorf("serve: proxy planning is torus-only; topology %q serves direct plans", req.Topology)
	}
	b, err := reads.build(scenario.Config{
		Shape:    req.Shape,
		Topology: req.Topology,
		Transfer: &scenario.TransferConfig{Kind: "pair", Src: req.Src, Dst: req.Dst, Bytes: req.Bytes, Proxies: req.Proxies},
	}, faults)
	if err != nil {
		return PairPlan{}, err
	}
	out := PairWireFromPlan(b.Engine, *b.Pair, float64(b.Makespan))
	if b.Torus == nil {
		out.Topology = b.Topo.Spec()
	}
	return out, nil
}

// PairWireFromPlan builds the wire form from a core plan plus the engine
// it was submitted to. Exported so differential tests can construct the
// expected bytes from a direct planner call.
func PairWireFromPlan(e *netsim.Engine, plan core.PairPlan, makespanSec float64) PairPlan {
	out := PairPlan{
		Mode:       plan.Mode.String(),
		Bytes:      plan.Bytes,
		Flows:      flowWires(e),
		MakespanMS: makespanSec * 1e3,
		GBps:       netsim.Throughput(plan.Bytes, sim.Duration(makespanSec)) / 1e9,
	}
	for _, pr := range plan.Proxies {
		out.Proxies = append(out.Proxies, ProxyWire{
			Proxy: int(pr.Proxy),
			Leg1:  append([]int(nil), pr.Leg1.Links...),
			Leg2:  append([]int(nil), pr.Leg2.Links...),
		})
	}
	return out
}

// ComputeGroup plans one group-to-group transfer and simulates it.
func ComputeGroup(req GroupRequest, faults []scenario.FailLink) (GroupPlan, error) {
	return computeGroup(req, faults, nil)
}

// computeGroup is ComputeGroup recording its fault reads in reads.
func computeGroup(req GroupRequest, faults []scenario.FailLink, reads *planReads) (GroupPlan, error) {
	if err := req.Validate(); err != nil {
		return GroupPlan{}, err
	}
	b, err := reads.build(scenario.Config{
		Shape: req.Shape,
		Transfer: &scenario.TransferConfig{
			Kind: "group", Bytes: req.Bytes, Proxies: req.Proxies,
			SrcOrigin: req.SrcOrigin, SrcExtent: req.SrcExtent,
			DstOrigin: req.DstOrigin, DstExtent: req.DstExtent,
		},
	}, faults)
	if err != nil {
		return GroupPlan{}, err
	}
	return GroupWireFromPlan(b.Engine, *b.Group, req.Bytes, float64(b.Makespan)), nil
}

// GroupWireFromPlan builds the wire form from a core group plan.
func GroupWireFromPlan(e *netsim.Engine, plan core.GroupPlan, bytesPerPair int64, makespanSec float64) GroupPlan {
	out := GroupPlan{
		Mode:        plan.Mode.String(),
		PairCount:   plan.PairCount,
		DirectPairs: plan.DirectPairs,
		TotalBytes:  plan.TotalBytes,
		Flows:       e.NumFlows(),
		MakespanMS:  makespanSec * 1e3,
		GBps:        netsim.Throughput(bytesPerPair, sim.Duration(makespanSec)) / 1e9,
		FlowSpecs:   flowWires(e),
	}
	for _, g := range plan.Groups {
		out.Groups = append(out.Groups, g.String())
	}
	return out
}

// ComputeAgg plans one seeded write burst under Algorithm 2 and
// simulates it.
func ComputeAgg(req AggRequest, faults []scenario.FailLink) (AggPlan, error) {
	return computeAgg(req, faults, nil)
}

// computeAgg is ComputeAgg recording its fault reads in reads.
func computeAgg(req AggRequest, faults []scenario.FailLink, reads *planReads) (AggPlan, error) {
	if err := req.Validate(); err != nil {
		return AggPlan{}, err
	}
	b, err := reads.build(scenario.Config{
		Shape:        req.Shape,
		RanksPerNode: req.RanksPerNode,
		Mapping:      req.Mapping,
		Seed:         req.Seed,
		IO:           &scenario.IOConfig{Workload: req.Workload, MaxBytes: req.MaxBytes, Approach: "topology-aware"},
	}, faults)
	if err != nil {
		return AggPlan{}, err
	}
	return AggWireFromPlan(b.Engine, b.IO, *b.Agg, float64(b.Makespan)), nil
}

// AggWireFromPlan builds the wire form from a core aggregation plan.
func AggWireFromPlan(e *netsim.Engine, ios *ionet.System, plan core.AggPlan, makespanSec float64) AggPlan {
	out := AggPlan{
		TotalBytes:     plan.TotalBytes,
		AggPerPset:     plan.AggPerPset,
		NumAggregators: plan.NumAggregators,
		Senders:        plan.Senders,
		MetadataMS:     float64(plan.Metadata) * 1e3,
		MakespanMS:     (makespanSec + float64(plan.Metadata)) * 1e3,
	}
	denom := makespanSec + float64(plan.Metadata)
	if denom > 0 {
		out.GBps = float64(plan.TotalBytes) / denom / 1e9
	}
	out.UplinkImbalance = stats.ImbalanceRatio(trace.UplinkLoads(e, ios))
	for _, ag := range plan.Aggregators {
		out.Aggregators = append(out.Aggregators, AggWire{Node: int(ag.Node), Pset: ag.Pset, Bridge: ag.Bridge})
	}
	return out
}

// validateSim validates a scenario (filling its defaults) and bounds its
// fabric. It refuses the io workload "file" before anything is opened:
// its burstFile is a path on the daemon's host, which a remote client
// must not make the daemon read (bgqsim, the local CLI, replays files).
func validateSim(cfg *scenario.Config) error {
	if cfg.IO != nil && cfg.IO.Workload == "file" {
		return fmt.Errorf("serve: io workload \"file\" reads a daemon-side path; replay it with bgqsim")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Topology != "" {
		return checkTopology(cfg.Topology)
	}
	_, err := parseShape(cfg.Shape)
	return err
}

// ComputeSim runs a full declarative scenario (the bgqsim schema) under
// the daemon's fault set, which applies where it names links of the
// scenario's torus; the scenario's own failLinks stay strict. Trace
// collection is disabled: traces are per-request artifacts, not
// cacheable plans.
func ComputeSim(cfg scenario.Config, faults []scenario.FailLink) (SimResult, error) {
	return computeSim(cfg, faults, nil)
}

// computeSim is ComputeSim recording its fault reads in reads.
func computeSim(cfg scenario.Config, faults []scenario.FailLink, reads *planReads) (SimResult, error) {
	cfg.CollectTrace = false
	if err := cfg.Validate(); err != nil {
		return SimResult{}, err
	}
	b, err := reads.build(cfg, faults)
	if err != nil {
		return SimResult{}, err
	}
	res, err := b.Result()
	if err != nil {
		return SimResult{}, err
	}
	return SimResult{
		Mode:            res.Mode,
		GBps:            res.GBps,
		MakespanMS:      res.MakespanMS,
		UplinkImbalance: res.UplinkImbalance,
		Notes:           res.Notes,
	}, nil
}

// cacheKey is the request's plan cache key: its kind, geometry and
// canonical encoding, as for every kind below. Identical requests — and
// only identical requests — produce identical keys. A pair key is on
// every cache hit's path, so it is built in one pass.
func (r PairRequest) cacheKey() string {
	// A topology spec takes the geometry slot; it always contains ':', so
	// it can never collide with a torus shape string.
	geom := r.Shape
	if r.Topology != "" {
		geom = r.Topology
	}
	b := make([]byte, 0, 64)
	b = append(b, "pair|"...)
	b = append(b, geom...)
	for _, v := range [...]int64{int64(r.Src), int64(r.Dst), r.Bytes, int64(r.Proxies)} {
		b = append(b, '|')
		b = strconv.AppendInt(b, v, 10)
	}
	return string(b)
}

func (r GroupRequest) cacheKey() string {
	return fmt.Sprintf("group|%s|%v|%v|%v|%v|%d|%d",
		r.Shape, r.SrcOrigin, r.SrcExtent, r.DstOrigin, r.DstExtent, r.Bytes, r.Proxies)
}

func (r AggRequest) cacheKey() string {
	return fmt.Sprintf("agg|%s|%d|%s|%s|%d|%d",
		r.Shape, r.RanksPerNode, r.Mapping, r.Workload, r.MaxBytes, r.Seed)
}

func simCacheKey(cfg scenario.Config, canonical []byte) string {
	h := fnv.New64a()
	h.Write(canonical)
	return fmt.Sprintf("sim|%s|%x", cfg.Shape, h.Sum64())
}
