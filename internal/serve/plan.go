package serve

import (
	"fmt"
	"hash/fnv"
	"sync"

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
	"bgqflow/internal/workload"
)

// This file holds the daemon's wire types and the pure plan
// computations behind them. Every Compute* function is a deterministic
// function of (request, fault set): it builds a fresh torus + network +
// engine, runs the same planner code path the one-shot CLIs use, and
// serializes the outcome. Purity is what makes the plan cache and
// request coalescing sound — and what the e2e differential test pins:
// plans served under concurrency must be byte-identical to a direct
// single-threaded planner call.

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

// applicableFaults filters the daemon's fault set down to the entries
// that name a valid link of this torus; events recorded against other
// geometries do not apply.
func applicableFaults(tor *torus.Torus, faults []scenario.FailLink) []scenario.FailLink {
	var out []scenario.FailLink
	for _, fl := range faults {
		if fl.Node < 0 || fl.Node >= tor.Size() || fl.Dim < 0 || fl.Dim >= tor.Dims() {
			continue
		}
		if fl.Dir != 1 && fl.Dir != -1 {
			continue
		}
		out = append(out, fl)
	}
	return out
}

func failNetworkLinks(tor *torus.Torus, net *netsim.Network, faults []scenario.FailLink) {
	for _, fl := range faults {
		dir := torus.Plus
		if fl.Dir == -1 {
			dir = torus.Minus
		}
		net.FailLink(tor.LinkID(torus.NodeID(fl.Node), fl.Dim, dir))
	}
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

// pairConfig maps the request's Proxies knob onto a ProxyConfig, the
// same convention the bgqsim scenario schema uses.
func pairConfig(proxies int) core.ProxyConfig {
	cfg := core.DefaultProxyConfig()
	if proxies < 0 {
		cfg.Threshold = 1 << 62
	} else if proxies > 0 {
		cfg.MaxProxies = proxies
		cfg.MinProxies = 1
		cfg.Threshold = 0
	}
	return cfg
}

// ComputePair plans one point-to-point transfer and simulates it.
func ComputePair(req PairRequest, faults []scenario.FailLink) (PairPlan, error) {
	return computePair(req, faults, nil)
}

// computePair is ComputePair recording its fault reads in reads.
func computePair(req PairRequest, faults []scenario.FailLink, reads *planReads) (PairPlan, error) {
	if err := req.Validate(); err != nil {
		return PairPlan{}, err
	}
	if req.Topology != "" {
		return computePairTopo(req, reads)
	}
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return PairPlan{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return PairPlan{}, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	failNetworkLinks(tor, net, applicableFaults(tor, faults))
	reads.watch(tor, net)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return PairPlan{}, err
	}
	pl, err := core.NewPairPlanner(tor, pairConfig(req.Proxies))
	if err != nil {
		return PairPlan{}, err
	}
	// Installed even on a fault-free network, where it changes no route
	// (RouteAvoiding tries the default route first): the plan then reads
	// only the links it routes over, not whether the fault set is empty.
	pl.SetFaults(net.FailedFunc())
	plan, err := pl.PlanPair(e, torus.NodeID(req.Src), torus.NodeID(req.Dst), req.Bytes)
	if err != nil {
		return PairPlan{}, err
	}
	mk, err := e.Run()
	if err != nil {
		return PairPlan{}, err
	}
	return PairWireFromPlan(e, plan, float64(mk)), nil
}

// computePairTopo plans a direct transfer on a non-torus fabric. The
// daemon's fault events are torus link coordinates and do not apply; the
// proxy ladder is torus-specific, so the plan is always direct (a
// request forcing proxies is rejected rather than silently downgraded).
func computePairTopo(req PairRequest, reads *planReads) (PairPlan, error) {
	if req.Proxies > 0 {
		return PairPlan{}, fmt.Errorf("serve: proxy planning is torus-only; topology %q serves direct plans", req.Topology)
	}
	tp, err := topo.Parse(req.Topology)
	if err != nil {
		return PairPlan{}, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetworkTopo(tp, params.LinkBandwidth)
	reads.watch(nil, net)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return PairPlan{}, err
	}
	e.Submit(netsim.FlowSpec{
		Src:   torus.NodeID(req.Src),
		Dst:   torus.NodeID(req.Dst),
		Bytes: req.Bytes,
		Label: "direct",
	})
	mk, err := e.Run()
	if err != nil {
		return PairPlan{}, err
	}
	return PairPlan{
		Mode:       "direct",
		Topology:   tp.Spec(),
		Bytes:      req.Bytes,
		Flows:      flowWires(e),
		MakespanMS: float64(mk) * 1e3,
		GBps:       netsim.Throughput(req.Bytes, sim.Duration(mk)) / 1e9,
	}, nil
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
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return GroupPlan{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return GroupPlan{}, err
	}
	sBox, err := torus.NewBox(tor, req.SrcOrigin, req.SrcExtent)
	if err != nil {
		return GroupPlan{}, fmt.Errorf("serve: srcBox: %w", err)
	}
	dBox, err := torus.NewBox(tor, req.DstOrigin, req.DstExtent)
	if err != nil {
		return GroupPlan{}, fmt.Errorf("serve: dstBox: %w", err)
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	failNetworkLinks(tor, net, applicableFaults(tor, faults))
	reads.watch(tor, net)
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return GroupPlan{}, err
	}
	cfg := core.DefaultProxyConfig()
	if req.Proxies < 0 {
		cfg.Threshold = 1 << 62
	}
	gp, err := core.NewGroupPlanner(tor, cfg)
	if err != nil {
		return GroupPlan{}, err
	}
	// Always installed, as in computePair: fault-free routes are unchanged.
	gp.SetFaults(net.FailedFunc())
	if req.Proxies > 0 {
		gp.ForceGroups = req.Proxies
	}
	plan, err := gp.Plan(e, sBox, dBox, req.Bytes)
	if err != nil {
		return GroupPlan{}, err
	}
	mk, err := e.Run()
	if err != nil {
		return GroupPlan{}, err
	}
	return GroupWireFromPlan(e, plan, req.Bytes, float64(mk)), nil
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
	shape, err := torus.ParseShape(req.Shape)
	if err != nil {
		return AggPlan{}, err
	}
	tor, err := torus.New(shape)
	if err != nil {
		return AggPlan{}, err
	}
	params := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, params.LinkBandwidth)
	ios, err := ionet.Build(net, ionet.DefaultConfig())
	if err != nil {
		return AggPlan{}, err
	}
	failNetworkLinks(tor, net, applicableFaults(tor, faults))
	reads.watch(tor, net)
	job, err := mpisim.NewJobWithMapping(tor, req.RanksPerNode, mpisim.MapOrder(req.Mapping))
	if err != nil {
		return AggPlan{}, err
	}
	var data []int64
	switch req.Workload {
	case "pattern1":
		data = workload.Uniform(job.NumRanks(), req.MaxBytes, req.Seed)
	case "pattern2":
		data = workload.Pattern2(job.NumRanks(), req.MaxBytes, req.Seed)
	case "dense":
		data = workload.Dense(job.NumRanks(), req.MaxBytes)
	case "hacc":
		data = workload.HACC(job.NumRanks(), req.MaxBytes/workload.HACCRecordBytes)
	}
	e, err := netsim.NewEngine(net, params)
	if err != nil {
		return AggPlan{}, err
	}
	pl, err := core.NewAggPlanner(ios, job, params, core.DefaultAggConfig())
	if err != nil {
		return AggPlan{}, err
	}
	plan, err := pl.Plan(e, data)
	if err != nil {
		return AggPlan{}, err
	}
	mk, err := e.Run()
	if err != nil {
		return AggPlan{}, err
	}
	var aggs []core.Aggregator
	if plan.TotalBytes > 0 {
		// Re-derive the (deterministic) selection so the wire form can
		// carry it; mirror the planner's degraded-pset filtering.
		_, aggs = pl.AggregatorsFor(plan.TotalBytes)
		if net.HasFailures() {
			live := aggs[:0]
			for _, ag := range aggs {
				if !net.NodeFailed(ag.Node) {
					live = append(live, ag)
				}
			}
			aggs = live
		}
	}
	return AggWireFromPlan(e, ios, plan, aggs, float64(mk)), nil
}

// AggWireFromPlan builds the wire form from a core aggregation plan plus
// the (already fault-filtered) aggregator selection behind it.
func AggWireFromPlan(e *netsim.Engine, ios *ionet.System, plan core.AggPlan, aggs []core.Aggregator, makespanSec float64) AggPlan {
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
	for _, ag := range aggs {
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

// ComputeSim runs a full declarative scenario (the bgqsim schema). The
// daemon's fault set is merged into the scenario's failLinks (entries
// valid for its shape only); trace collection is disabled — traces are
// per-request artifacts, not cacheable plans.
func ComputeSim(cfg scenario.Config, faults []scenario.FailLink) (SimResult, error) {
	cfg.CollectTrace = false
	if shape, err := torus.ParseShape(cfg.Shape); err == nil {
		if tor, terr := torus.New(shape); terr == nil {
			cfg.FailLinks = append(append([]scenario.FailLink(nil), cfg.FailLinks...),
				applicableFaults(tor, faults)...)
		}
	}
	res, err := scenario.Run(cfg)
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

// paramsSignature folds the machine constants into the cache key so a
// future multi-params daemon can never serve a plan computed under
// different hardware assumptions. DefaultParams is constant, so the hash
// is computed once.
var paramsSignature = sync.OnceValue(func() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%v", netsim.DefaultParams())
	return h.Sum64()
})

// bytesBucket buckets a message size by power of two — the cache-key
// granularity axis from the issue: requests in the same bucket share a
// shard and sort near each other, while the exact size still
// distinguishes entries (plans must be byte-exact).
func bytesBucket(b int64) int {
	bucket := 0
	for b > 0 {
		b >>= 1
		bucket++
	}
	return bucket
}

// CacheKey builds the canonical cache key for a request: kind, shape,
// machine-params hash, endpoints, bytes bucket, and the full canonical
// request encoding. Identical requests — and only identical requests —
// produce identical keys.
func cacheKey(kind, shape string, src, dst int, bytes int64, canonical string) string {
	return fmt.Sprintf("%s|%s|%x|%d|%d|b%d|%s", kind, shape, paramsSignature(), src, dst, bytesBucket(bytes), canonical)
}

func (r PairRequest) cacheKey() string {
	// A topology spec takes the geometry slot; it always contains ':', so
	// it can never collide with a torus shape string.
	geom := r.Shape
	if r.Topology != "" {
		geom = r.Topology
	}
	return cacheKey("pair", geom, r.Src, r.Dst, r.Bytes,
		fmt.Sprintf("%d|%d", r.Bytes, r.Proxies))
}

func (r GroupRequest) cacheKey() string {
	return cacheKey("group", r.Shape, -1, -1, r.Bytes,
		fmt.Sprintf("%v|%v|%v|%v|%d|%d", r.SrcOrigin, r.SrcExtent, r.DstOrigin, r.DstExtent, r.Bytes, r.Proxies))
}

func (r AggRequest) cacheKey() string {
	return cacheKey("agg", r.Shape, -1, -1, r.MaxBytes,
		fmt.Sprintf("%d|%s|%s|%d|%d", r.RanksPerNode, r.Mapping, r.Workload, r.MaxBytes, r.Seed))
}

func simCacheKey(cfg scenario.Config, canonical []byte) string {
	h := fnv.New64a()
	h.Write(canonical)
	return cacheKey("sim", cfg.Shape, -1, -1, 0, fmt.Sprintf("%x", h.Sum64()))
}
