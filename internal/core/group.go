package core

import (
	"cmp"
	"fmt"
	"slices"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// GroupDirection describes one accepted proxy group: every source node's
// proxy is the source translated Multiplier * extent(Dim) hops along Dir
// in dimension Dim, so the proxy group is a contiguous region congruent
// to the source region (the paper's regions I-IV generalized to L
// dimensions).
type GroupDirection struct {
	Dim        int
	Dir        torus.Direction
	Multiplier int
}

// String renders e.g. "+D" or "+A*2".
func (g GroupDirection) String() string {
	s := g.Dir.String() + torus.DimNames[g.Dim]
	if g.Multiplier > 1 {
		s += fmt.Sprintf("*%d", g.Multiplier)
	}
	return s
}

// GroupPlan records a planned group-to-group transfer.
type GroupPlan struct {
	Mode TransferMode
	// Groups are the accepted proxy-group directions.
	Groups []GroupDirection
	// PairCount is the number of (source, destination) pairs.
	PairCount int
	// DirectPairs counts pairs that fell back to direct transfer.
	DirectPairs int
	// TotalBytes is the data volume across all pairs.
	TotalBytes int64
	// Final holds the flows that deliver data at destinations.
	Final []netsim.FlowID
}

// SelectGroupDirections enumerates proxy-group candidates for a transfer
// from sBox to tBox: translations of the source region by whole multiples
// of its own extent along each dimension. A candidate is valid when the
// translated region is disjoint from the source region, the destination
// region, and every previously accepted proxy region. Candidates are
// enumerated multiplier 1 first (adjacent regions — link-disjoint
// geometry), then farther multiples whose first-leg routes pass through
// nearer proxy regions and therefore interfere; the paper's Fig. 7 forced
// sweep exercises exactly that regime.
//
// want limits how many directions are returned; want <= 0 means "all
// valid multiplier-1 candidates" (the auto mode used when the caller just
// wants maximum disjoint bandwidth).
func SelectGroupDirections(tor *torus.Torus, sBox, tBox torus.Box, want int) []GroupDirection {
	sNodes := sBox.Nodes(tor)
	inS := make(map[torus.NodeID]struct{}, len(sNodes))
	for _, n := range sNodes {
		inS[n] = struct{}{}
	}
	inT := make(map[torus.NodeID]struct{}, tBox.Size())
	for _, n := range tBox.Nodes(tor) {
		inT[n] = struct{}{}
	}
	taken := make(map[torus.NodeID]struct{}) // nodes of accepted proxy regions

	var accepted []GroupDirection
	maxMult := 1
	if want > 0 {
		// Allow far translations only when a specific count is forced.
		maxMult = 8
	}
	for m := 1; m <= maxMult; m++ {
		for _, dim := range tor.DimsByExtentDesc() {
			shift := m * sBox.Extent[dim]
			if shift%tor.Extent(dim) == 0 {
				continue // translation is the identity: overlaps the source region
			}
			for _, dir := range []torus.Direction{torus.Plus, torus.Minus} {
				if want > 0 && len(accepted) >= want {
					return accepted
				}
				region := translateNodes(tor, sNodes, dim, int(dir)*shift)
				if overlaps(region, inS) || overlaps(region, inT) || overlaps(region, taken) {
					continue
				}
				for _, n := range region {
					taken[n] = struct{}{}
				}
				accepted = append(accepted, GroupDirection{Dim: dim, Dir: dir, Multiplier: m})
			}
		}
	}
	return accepted
}

func translateNodes(tor *torus.Torus, nodes []torus.NodeID, dim, shift int) []torus.NodeID {
	out := make([]torus.NodeID, len(nodes))
	c := make(torus.Coord, tor.Dims())
	for i, n := range nodes {
		tor.CoordInto(n, c)
		c[dim] = tor.Wrap(dim, c[dim]+shift)
		out[i] = tor.ID(c)
	}
	return out
}

func overlaps(nodes []torus.NodeID, set map[torus.NodeID]struct{}) bool {
	for _, n := range nodes {
		if _, ok := set[n]; ok {
			return true
		}
	}
	return false
}

// GroupPlanner plans data-coupling transfers between two congruent groups
// of compute nodes (the multiphysics scenario of the paper's Figs. 6-7).
// A forced count (cfg.Proxies > 0) uses exactly that many proxy groups,
// with best effort routing and interference allowed, instead of the
// automatic disjoint selection — the Fig. 7 sweep.
type GroupPlanner struct {
	tor *torus.Torus
	cfg ProxyConfig
}

// NewGroupPlanner returns a group planner; every configuration is valid,
// since SelectGroupDirections finds as many forced groups as fit.
func NewGroupPlanner(tor *torus.Torus, cfg ProxyConfig) *GroupPlanner {
	return &GroupPlanner{tor: tor, cfg: cfg}
}

// directFlow submits one pair's direct transfer, routed around the
// failed links of the engine's network.
func (g *GroupPlanner) directFlow(e *netsim.Engine, i int, src, dst torus.NodeID, bytes int64) (netsim.FlowID, error) {
	spec := netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes, Label: fmt.Sprintf("pair%d/direct", i)}
	if src != dst {
		r, err := e.Network().RouteAvoiding(src, dst)
		if err != nil {
			return 0, fmt.Errorf("core: pair %d direct path cut by failures: %w", i, err)
		}
		spec.Links = r.Links
	}
	return e.Submit(spec), nil
}

// Plan pairs the i-th node of sBox with the i-th node of tBox (box-local
// row-major order, the contiguous mapping used by coupled multiphysics
// codes) and moves bytesPerPair from every source to its destination,
// using proxy groups when profitable. Direct pairs and proxy legs avoid
// the failed links of the engine's network, and Plan fails when a
// direct pair has no minimal route left.
func (g *GroupPlanner) Plan(e *netsim.Engine, sBox, tBox torus.Box, bytesPerPair int64) (GroupPlan, error) {
	if sBox.Size() != tBox.Size() {
		return GroupPlan{}, fmt.Errorf("core: group sizes differ: %d vs %d", sBox.Size(), tBox.Size())
	}
	if bytesPerPair < 0 {
		return GroupPlan{}, fmt.Errorf("core: negative transfer size")
	}
	sNodes := sBox.Nodes(g.tor)
	tNodes := tBox.Nodes(g.tor)
	plan := GroupPlan{PairCount: len(sNodes), TotalBytes: bytesPerPair * int64(len(sNodes))}
	net := e.Network()

	directAll := func() (GroupPlan, error) {
		plan.Mode = Direct
		plan.DirectPairs = plan.PairCount
		for i := range sNodes {
			id, err := g.directFlow(e, i, sNodes[i], tNodes[i], bytesPerPair)
			if err != nil {
				return GroupPlan{}, err
			}
			plan.Final = append(plan.Final, id)
		}
		return plan, nil
	}

	forced := g.cfg.Proxies > 0
	if g.cfg.Proxies < 0 || !forced && bytesPerPair < pairThreshold {
		return directAll()
	}
	groups := SelectGroupDirections(g.tor, sBox, tBox, g.cfg.Proxies)
	if len(groups) == 0 || !forced && len(groups) < minProxies {
		return directAll()
	}
	plan.Mode = Proxied
	plan.Groups = groups

	for i := range sNodes {
		src, dst := sNodes[i], tNodes[i]
		// Resolve each group's proxy for this pair, then route the most
		// constrained proxies (fewest displacement dimensions to the
		// destination, hence fewest possible entry links) first.
		type cand struct {
			proxy torus.NodeID
			disp  int
		}
		var cands []cand
		for _, grp := range groups {
			shift := int(grp.Dir) * grp.Multiplier * sBox.Extent[grp.Dim]
			c := g.tor.Coord(src)
			c[grp.Dim] = g.tor.Wrap(grp.Dim, c[grp.Dim]+shift)
			proxy := g.tor.ID(c)
			if proxy == src || proxy == dst {
				continue
			}
			cands = append(cands, cand{proxy, displacementDims(g.tor, proxy, dst)})
		}
		slices.SortStableFunc(cands, func(a, b cand) int { return cmp.Compare(a.disp, b.disp) })
		// Build this pair's proxy routes; per-pair link-disjointness.
		busy := make(map[int]struct{}, 64)
		type legPair struct {
			proxy      torus.NodeID
			leg1, leg2 routing.Route
		}
		var legs []legPair
		for _, cd := range cands {
			proxy := cd.proxy
			// The default route, or the first minimal one around failed
			// links.
			leg1, err := net.RouteAvoiding(src, proxy)
			if err != nil {
				continue
			}
			leg2, ok := disjointRoute(g.tor, proxy, dst, busy, net.LinkFailed, leg1.Links)
			if !ok {
				if !forced {
					continue
				}
				// Forced mode: take the default route (around failures)
				// and let the interference show up in the simulation.
				if leg2, err = net.RouteAvoiding(proxy, dst); err != nil {
					continue
				}
			}
			markBusy(busy, leg1.Links)
			markBusy(busy, leg2.Links)
			legs = append(legs, legPair{proxy, leg1, leg2})
		}
		if len(legs) == 0 || !forced && len(legs) < minProxies {
			plan.DirectPairs++
			id, err := g.directFlow(e, i, src, dst, bytesPerPair)
			if err != nil {
				return GroupPlan{}, err
			}
			plan.Final = append(plan.Final, id)
			continue
		}
		pieces := splitBytes(bytesPerPair, len(legs))
		for k, lp := range legs {
			pr := ProxyRoute{Proxy: lp.proxy, Leg1: lp.leg1, Leg2: lp.leg2}
			_, finals := submitLegPair(e, g.cfg, pr, pieces[k], fmt.Sprintf("pair%d/g%d", i, k))
			plan.Final = append(plan.Final, finals...)
		}
	}
	return plan, nil
}
