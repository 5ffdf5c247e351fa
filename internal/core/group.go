package core

import (
	"fmt"

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
type GroupPlanner struct {
	tor    *torus.Torus
	cfg    ProxyConfig
	faults func(int) bool

	// ForceGroups, when positive, uses exactly that many proxy groups
	// (best effort routing, interference allowed) instead of the
	// automatic disjoint selection — the Fig. 7 sweep.
	ForceGroups int
}

// NewGroupPlanner validates the configuration.
func NewGroupPlanner(tor *torus.Torus, cfg ProxyConfig) (*GroupPlanner, error) {
	if err := cfg.validate(tor.Dims()); err != nil {
		return nil, err
	}
	return &GroupPlanner{tor: tor, cfg: cfg}, nil
}

// SetFaults gives the planner a failed-link predicate, as
// PairPlanner.SetFaults does: direct pairs and proxy legs avoid those
// links, and Plan fails when a pair has no minimal route left. Pass the
// network's FailedFunc after injecting failures.
func (g *GroupPlanner) SetFaults(failed func(int) bool) { g.faults = failed }

// directFlow submits one pair's direct transfer, routed around failed
// links when the planner has a fault predicate.
func (g *GroupPlanner) directFlow(e *netsim.Engine, i int, src, dst torus.NodeID, bytes int64) (netsim.FlowID, error) {
	spec := netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes, Label: fmt.Sprintf("pair%d/direct", i)}
	if g.faults != nil && src != dst {
		r, err := routing.RouteAvoiding(g.tor, src, dst, g.faults)
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
// using proxy groups when profitable.
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

	forced := g.ForceGroups > 0
	if !forced && bytesPerPair < g.cfg.Threshold {
		return directAll()
	}
	want := 0
	if forced {
		want = g.ForceGroups
	}
	groups := SelectGroupDirections(g.tor, sBox, tBox, want)
	if want > 0 && len(groups) > want {
		groups = groups[:want]
	}
	if !forced {
		if max := g.cfg.maxProxies(g.tor.Dims()); len(groups) > max {
			groups = groups[:max]
		}
		if len(groups) < g.cfg.MinProxies {
			return directAll()
		}
	}
	if len(groups) == 0 {
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
		for a := 1; a < len(cands); a++ {
			for b := a; b > 0 && cands[b].disp < cands[b-1].disp; b-- {
				cands[b], cands[b-1] = cands[b-1], cands[b]
			}
		}
		// Build this pair's proxy routes; per-pair link-disjointness.
		busy := make(map[int]struct{}, 64)
		type legPair struct {
			proxy      torus.NodeID
			leg1, leg2 routing.Route
		}
		var legs []legPair
		for _, cd := range cands {
			proxy := cd.proxy
			// The default route, or with faults the first minimal one
			// around them.
			leg1, err := routing.RouteAvoiding(g.tor, src, proxy, g.faults)
			if err != nil {
				continue
			}
			leg2, ok := disjointRoute(g.tor, proxy, dst, busy, g.faults, leg1.Links)
			if !ok {
				if !forced {
					continue
				}
				// Forced mode: take the default route (around failures)
				// and let the interference show up in the simulation.
				if leg2, err = routing.RouteAvoiding(g.tor, proxy, dst, g.faults); err != nil {
					continue
				}
			}
			markBusy(busy, leg1.Links)
			markBusy(busy, leg2.Links)
			legs = append(legs, legPair{proxy, leg1, leg2})
		}
		if len(legs) == 0 || !forced && len(legs) < g.cfg.MinProxies {
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
