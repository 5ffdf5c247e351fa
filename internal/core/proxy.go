package core

import (
	"cmp"
	"fmt"
	"slices"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// ProxyConfig tunes Algorithm 1.
type ProxyConfig struct {
	// MinProxies is the smallest number of link-disjoint proxy paths
	// worth using; below it the transfer goes direct. The paper's cost
	// model (Eq. 5) shows the gain is k/2, so the default is 3.
	MinProxies int

	// MaxProxies caps the number of proxies; at most 2L directions exist
	// on an L-dimensional torus. Zero means 2L.
	MaxProxies int

	// Threshold is the message size (bytes) below which direct transfer
	// wins: splitting small messages multiplies the fixed per-message
	// injection and reception costs. Calibrated to the paper's measured
	// 256 KB crossover on the 128-node geometry.
	Threshold int64

	// Pipeline enables the paper's future-work extension: each piece is
	// segmented into pipelineChunk-byte chunks so the proxy can forward
	// chunk c while chunk c+1 is still inbound, cutting the
	// store-and-forward factor below 2 and making even 2 proxies
	// profitable.
	Pipeline bool

	// AutoThreshold derives the direct/proxy threshold from the Eq. 1-5
	// cost model (per pair, using the pair's hop counts and the proxy
	// count on offer) instead of the fixed Threshold value — the paper's
	// future-work analytical model put to work. Resilient transfers set
	// it; one-shot plans keep the fixed threshold.
	AutoThreshold bool
}

// proxyOffset is the distance (hops) from the source at which Algorithm
// 1 places a proxy along each candidate direction.
const proxyOffset = 1

// pipelineChunk is the segment size of the pipelined extension.
const pipelineChunk = 1 << 20

// DefaultProxyConfig returns the paper's operating point.
func DefaultProxyConfig() ProxyConfig {
	return ProxyConfig{
		MinProxies: 3,
		MaxProxies: 0, // 2L
		Threshold:  256 << 10,
		Pipeline:   false,
	}
}

func (c ProxyConfig) validate(dims int) error {
	if c.MinProxies < 1 {
		return fmt.Errorf("core: MinProxies %d must be >= 1", c.MinProxies)
	}
	if c.MaxProxies < 0 || c.MaxProxies > 2*dims {
		return fmt.Errorf("core: MaxProxies %d outside [0,%d]", c.MaxProxies, 2*dims)
	}
	if c.Threshold < 0 {
		return fmt.Errorf("core: negative Threshold")
	}
	return nil
}

func (c ProxyConfig) maxProxies(dims int) int {
	if c.MaxProxies == 0 {
		return 2 * dims
	}
	return c.MaxProxies
}

// ProxyRoute is one accepted proxy: the intermediate node plus the two
// link-disjoint legs.
type ProxyRoute struct {
	Proxy torus.NodeID
	// Dim and Dir record the candidate direction the proxy was found on.
	Dim  int
	Dir  torus.Direction
	Leg1 routing.Route // source -> proxy
	Leg2 routing.Route // proxy -> destination
}

// TransferMode says how a planned transfer moves.
type TransferMode int

const (
	// Direct means the default single deterministic path.
	Direct TransferMode = iota
	// Proxied means multipath via intermediate nodes.
	Proxied
)

func (m TransferMode) String() string {
	if m == Direct {
		return "direct"
	}
	return "proxied"
}

// PairPlanner plans point-to-point transfers (the paper's first
// microbenchmark): it selects proxies for a (src, dst) pair and emits the
// two-phase flow DAG, once with PlanPair or wave by wave with
// MoveResilient. A PairPlanner holds only immutable configuration, so
// one may serve concurrent transfers on separate engines.
type PairPlanner struct {
	tor *torus.Torus
	cfg ProxyConfig
}

// NewPairPlanner validates the configuration for the torus.
func NewPairPlanner(tor *torus.Torus, cfg ProxyConfig) (*PairPlanner, error) {
	if err := cfg.validate(tor.Dims()); err != nil {
		return nil, err
	}
	return &PairPlanner{tor: tor, cfg: cfg}, nil
}

// SelectProxies runs the Find-Proxies part of Algorithm 1 for one pair
// on the healthy torus: it checks the 2L candidates along the + and - of
// each dimension (longest dimensions first, matching where the most
// routing freedom is) and accepts a candidate only when a pair of legs
// can be routed disjoint from every already-accepted leg. The returned
// set may be smaller than MinProxies; the caller decides whether to fall
// back to direct transfer. PlanPair runs the same search around the
// engine network's failed links.
func (p *PairPlanner) SelectProxies(src, dst torus.NodeID) []ProxyRoute {
	return selectProxies(p.tor, src, dst, p.cfg, nil)
}

// selectProxies is the candidate search behind SelectProxies and
// proxiesFor; legs avoid the links faults reports failed (none when
// faults is nil).
func selectProxies(tor *torus.Torus, src, dst torus.NodeID, cfg ProxyConfig, faults func(int) bool) []ProxyRoute {
	if src == dst {
		return nil
	}
	busy := make(map[int]struct{}, 64)
	var accepted []ProxyRoute
	usedProxies := map[torus.NodeID]struct{}{src: {}, dst: {}}
	max := cfg.maxProxies(tor.Dims())

	// Enumerate the 2L candidates, then process the most constrained
	// first: a proxy whose route to the destination moves in few
	// dimensions has few possible entry links, so it must claim them
	// before a flexible candidate does. This is the role of the paper's
	// placement offsets: making the k incoming directions distinct.
	type candidate struct {
		proxy torus.NodeID
		dim   int
		dir   torus.Direction
		disp  int // dimensions the proxy differs from dst in
	}
	cands := make([]candidate, 0, 2*tor.Dims())
	var cb [torus.MaxDims]int
	c := torus.Coord(cb[:tor.Dims()])
	for _, dim := range tor.DimsByExtentDesc() {
		for _, dir := range [2]torus.Direction{torus.Plus, torus.Minus} {
			tor.CoordInto(src, c)
			c[dim] = tor.Wrap(dim, c[dim]+int(dir)*proxyOffset)
			proxy := tor.ID(c)
			if _, taken := usedProxies[proxy]; taken {
				continue
			}
			usedProxies[proxy] = struct{}{}
			cands = append(cands, candidate{proxy, dim, dir, displacementDims(tor, proxy, dst)})
		}
	}
	slices.SortStableFunc(cands, func(a, b candidate) int { return cmp.Compare(a.disp, b.disp) })
	for _, cand := range cands {
		if len(accepted) >= max {
			break
		}
		leg1 := routing.DeterministicRoute(tor, src, cand.proxy)
		if anyBusy(busy, leg1.Links) || anyFailed(faults, leg1.Links) {
			continue
		}
		leg2, ok := disjointRoute(tor, cand.proxy, dst, busy, faults, leg1.Links)
		if !ok {
			continue
		}
		markBusy(busy, leg1.Links)
		markBusy(busy, leg2.Links)
		accepted = append(accepted, ProxyRoute{Proxy: cand.proxy, Dim: cand.dim, Dir: cand.dir, Leg1: leg1, Leg2: leg2})
	}
	return accepted
}

// displacementDims counts the dimensions in which two nodes differ — the
// number of routing degrees of freedom between them.
func displacementDims(tor *torus.Torus, a, b torus.NodeID) int {
	var ab, bb [torus.MaxDims]int
	ca, cb := torus.Coord(ab[:tor.Dims()]), torus.Coord(bb[:tor.Dims()])
	tor.CoordInto(a, ca)
	tor.CoordInto(b, cb)
	n := 0
	for i := range ca {
		if ca[i] != cb[i] {
			n++
		}
	}
	return n
}

func anyBusy(busy map[int]struct{}, links []int) bool {
	for _, l := range links {
		if _, ok := busy[l]; ok {
			return true
		}
	}
	return false
}

func anyFailed(faults func(int) bool, links []int) bool {
	if faults == nil {
		return false
	}
	for _, l := range links {
		if faults(l) {
			return true
		}
	}
	return false
}

func markBusy(busy map[int]struct{}, links []int) {
	for _, l := range links {
		busy[l] = struct{}{}
	}
}

// disjointRoute searches the dimension orders the BG/Q's zone routing can
// realize for a route from src to dst that avoids every busy link and
// every link in alsoAvoid, and then every failed link. Orders are tried
// in Heap's order from the default (longest-to-shortest) one. Routing
// stays minimal per dimension, so every returned route has minimal hop
// count; only the traversal order — and hence the links — differs.
//
// A route is one segment per dimension src and dst differ in, and a
// segment's links depend only on which dimensions were walked before it.
// So each (walked set, dimension) segment is checked against busy and
// alsoAvoid once, and only the orders whose segments are all clean are
// built and passed to the fault predicate: the same orders, in the same
// order, that checking every full route would pass to it. The route and
// the links the predicate reads are those of the exhaustive search.
func disjointRoute(tor *torus.Torus, src, dst torus.NodeID, busy map[int]struct{}, faults func(int) bool, alsoAvoid []int) (routing.Route, bool) {
	n := tor.Dims()
	var sb, db [torus.MaxDims]int
	srcC, dstC := torus.Coord(sb[:n]), torus.Coord(db[:n])
	tor.CoordInto(src, srcC)
	tor.CoordInto(dst, dstC)
	hops := 0
	for d := 0; d < n; d++ {
		h, _ := tor.Displacement(d, srcC[d], dstC[d])
		hops += h
	}
	// seg[walked][d] memoizes the segment along d after the dimensions in
	// the walked bitmask: 0 unchecked, 1 clean, 2 blocked.
	var seg [1 << torus.MaxDims][torus.MaxDims]uint8
	clean := func(walked uint, d int) bool {
		if s := seg[walked][d]; s != 0 {
			return s == 1
		}
		var cb [torus.MaxDims]int
		cur := torus.Coord(cb[:n])
		for i := range cur {
			cur[i] = srcC[i]
			if walked&(1<<i) != 0 {
				cur[i] = dstC[i]
			}
		}
		h, dir := tor.Displacement(d, cur[d], dstC[d])
		seg[walked][d] = 1
		for ; h > 0; h-- {
			l := tor.LinkID(tor.ID(cur), d, dir)
			if _, b := busy[l]; b || slices.Contains(alsoAvoid, l) {
				seg[walked][d] = 2
				return false
			}
			cur[d] = tor.Wrap(d, cur[d]+int(dir))
		}
		return true
	}
	var perms routing.Permuter
	perms.Reset(tor.DimsByExtentDesc())
	var links []int
	for order, more := perms.Next(); more; order, more = perms.Next() {
		ok := true
		walked := uint(0)
		for _, d := range order {
			if srcC[d] == dstC[d] {
				continue
			}
			if !clean(walked, d) {
				ok = false
				break
			}
			walked |= 1 << d
		}
		if !ok {
			continue
		}
		if links == nil && hops > 0 {
			links = make([]int, 0, hops)
		}
		links = routing.AppendRouteLinks(links[:0], tor, src, dst, order)
		if !anyFailed(faults, links) {
			return routing.Route{Src: src, Dst: dst, Links: links}, true
		}
	}
	return routing.Route{}, false
}

// PairPlan records what PlanPair decided and submitted.
type PairPlan struct {
	Mode    TransferMode
	Proxies []ProxyRoute
	Bytes   int64
	// Flows holds the submitted flow IDs (all legs).
	Flows []netsim.FlowID
	// Final holds the flows whose completion delivers the data at the
	// destination (the direct flow, or every second leg).
	Final []netsim.FlowID
}

// PlanPair runs the decision procedure of Algorithm 1 for one message and
// submits the flows: direct when the message is below the threshold or
// fewer than MinProxies disjoint paths exist, multipath otherwise. Every
// leg avoids the failed links of the engine's network.
func (p *PairPlanner) PlanPair(e *netsim.Engine, src, dst torus.NodeID, bytes int64) (PairPlan, error) {
	if bytes < 0 {
		return PairPlan{}, fmt.Errorf("core: negative transfer size %d", bytes)
	}
	proxies, err := p.proxiesFor(e, src, dst, bytes, p.cfg.maxProxies(p.tor.Dims()))
	if err != nil {
		return PairPlan{}, err
	}
	if proxies == nil {
		spec := netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes, Label: "direct"}
		if src != dst {
			r, err := e.Network().RouteAvoiding(src, dst)
			if err != nil {
				return PairPlan{}, fmt.Errorf("core: direct path cut by failures: %w", err)
			}
			spec.Links = r.Links
		}
		id := e.Submit(spec)
		return PairPlan{Mode: Direct, Bytes: bytes, Flows: []netsim.FlowID{id}, Final: []netsim.FlowID{id}}, nil
	}
	plan := PairPlan{Mode: Proxied, Proxies: proxies, Bytes: bytes}
	pieces := splitBytes(bytes, len(proxies))
	for i, pr := range proxies {
		flows, finals := submitLegPair(e, p.cfg, pr, pieces[i], fmt.Sprintf("proxy%d", i))
		plan.Flows = append(plan.Flows, flows...)
		plan.Final = append(plan.Final, finals...)
	}
	return plan, nil
}

// proxiesFor is Algorithm 1's decision for one message of bytes, for
// PlanPair (k = MaxProxies) and for every wave of MoveResilient (k = the
// degradation ladder's cap). It returns at most k proxies whose legs
// avoid the engine network's failed links, or nil when the message goes
// direct: src == dst, k below MinProxies, bytes below the threshold (the
// configured one, or under AutoThreshold the Eq. 1-5 model's for k
// proxies), or fewer than MinProxies disjoint paths.
func (p *PairPlanner) proxiesFor(e *netsim.Engine, src, dst torus.NodeID, bytes int64, k int) ([]ProxyRoute, error) {
	if src == dst || k < p.cfg.MinProxies {
		return nil, nil
	}
	threshold := p.cfg.Threshold
	if p.cfg.AutoThreshold {
		m, err := NewCostModel(e.Params())
		if err != nil {
			return nil, err
		}
		threshold = m.PairThreshold(k, p.tor.HopDistance(src, dst))
		if threshold == 0 {
			threshold = 1 << 62 // the model says proxies never win here
		}
	}
	if bytes < threshold {
		return nil, nil
	}
	// The search always runs to the configured maximum, so the failed
	// links it reads do not depend on k.
	proxies := selectProxies(p.tor, src, dst, p.cfg, e.Network().LinkFailed)
	if len(proxies) > k {
		proxies = proxies[:k]
	}
	if len(proxies) < p.cfg.MinProxies {
		return nil, nil
	}
	return proxies, nil
}

// submitLegPair emits the flow DAG for one proxy piece, for the pair and
// group planners: either one store-and-forward leg pair, or a pipelined
// chain of chunk leg pairs.
func submitLegPair(e *netsim.Engine, cfg ProxyConfig, pr ProxyRoute, bytes int64, label string) (flows, finals []netsim.FlowID) {
	fwd := e.Params().ProxyForwardOverhead
	if !cfg.Pipeline || bytes <= pipelineChunk {
		l1 := e.Submit(netsim.FlowSpec{
			Src: pr.Leg1.Src, Dst: pr.Proxy, Bytes: bytes,
			Links: pr.Leg1.Links, Label: label + "/leg1",
		})
		l2 := e.Submit(netsim.FlowSpec{
			Src: pr.Proxy, Dst: pr.Leg2.Dst, Bytes: bytes,
			Links: pr.Leg2.Links, DependsOn: []netsim.FlowID{l1},
			ExtraDelay: fwd, Label: label + "/leg2",
		})
		return []netsim.FlowID{l1, l2}, []netsim.FlowID{l2}
	}
	// Pipelined: chunk the piece; chain first legs so the proxy receives
	// chunks in order, and forward each as soon as it lands.
	var prev netsim.FlowID = -1
	remaining := bytes
	chunkIdx := 0
	for remaining > 0 {
		sz := min(remaining, pipelineChunk)
		remaining -= sz
		var deps []netsim.FlowID
		if prev >= 0 {
			deps = []netsim.FlowID{prev}
		}
		l1 := e.Submit(netsim.FlowSpec{
			Src: pr.Leg1.Src, Dst: pr.Proxy, Bytes: sz,
			Links: pr.Leg1.Links, DependsOn: deps,
			Label: fmt.Sprintf("%s/chunk%d/leg1", label, chunkIdx),
		})
		l2 := e.Submit(netsim.FlowSpec{
			Src: pr.Proxy, Dst: pr.Leg2.Dst, Bytes: sz,
			Links: pr.Leg2.Links, DependsOn: []netsim.FlowID{l1},
			ExtraDelay: fwd, Label: fmt.Sprintf("%s/chunk%d/leg2", label, chunkIdx),
		})
		flows = append(flows, l1, l2)
		finals = append(finals, l2)
		prev = l1
		chunkIdx++
	}
	return flows, finals
}

// splitBytes divides bytes into n near-equal pieces (remainder spread over
// the first pieces).
func splitBytes(bytes int64, n int) []int64 {
	out := make([]int64, n)
	base := bytes / int64(n)
	rem := bytes - base*int64(n)
	for i := range out {
		out[i] = base
		if int64(i) < rem {
			out[i]++
		}
	}
	return out
}
