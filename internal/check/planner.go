package check

import (
	"fmt"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// CheckProxyDisjoint verifies Algorithm 1's structural guarantee on a
// selected proxy set: every leg starts and ends where the plan says it
// does, and all legs — both legs of one proxy and any legs of different
// proxies — are pairwise link-disjoint. Link-disjointness is the whole
// point of the multipath transfer (the paper's Section IV-B): two legs
// sharing a link would halve each other's bandwidth and void the k/2
// gain of Eq. 5.
func CheckProxyDisjoint(proxies []core.ProxyRoute) []Violation {
	var viols []Violation
	type leg struct {
		name  string
		route routing.Route
	}
	var legs []leg
	for i, pr := range proxies {
		if pr.Leg1.Dst != pr.Proxy || pr.Leg2.Src != pr.Proxy {
			viols = append(viols, Violation{
				Invariant: "proxy-disjoint",
				Detail:    fmt.Sprintf("proxy %d legs do not meet at node %d (leg1 %d->%d, leg2 %d->%d)", i, pr.Proxy, pr.Leg1.Src, pr.Leg1.Dst, pr.Leg2.Src, pr.Leg2.Dst),
			})
		}
		legs = append(legs,
			leg{fmt.Sprintf("proxy%d/leg1", i), pr.Leg1},
			leg{fmt.Sprintf("proxy%d/leg2", i), pr.Leg2},
		)
	}
	for i := range legs {
		for j := i + 1; j < len(legs); j++ {
			if routing.SharesLink(legs[i].route, legs[j].route) {
				viols = append(viols, Violation{
					Invariant: "proxy-disjoint",
					Detail:    fmt.Sprintf("%s and %s share a link", legs[i].name, legs[j].name),
				})
			}
		}
	}
	return viols
}

// IONBytesFromFlows recovers the per-I/O-node byte load of a planned
// aggregation burst from the engine's submitted flows, by the
// "agg%d->ion%d" labels Algorithm 2 stamps on every fabric flow.
func IONBytesFromFlows(e *netsim.Engine, numPsets int) []int64 {
	out := make([]int64, numPsets)
	for i := 0; i < e.NumFlows(); i++ {
		spec := e.Spec(netsim.FlowID(i))
		var agg, pset int
		if n, err := fmt.Sscanf(spec.Label, "agg%d->ion%d", &agg, &pset); err != nil || n != 2 {
			continue
		}
		if pset >= 0 && pset < numPsets {
			out[pset] += spec.Bytes
		}
	}
	return out
}

// CheckAggBalance verifies Algorithm 2's balance bound: with round-robin
// assignment over pset-interleaved aggregators, per-I/O-node sender
// counts differ by at most one, so per-I/O-node bytes differ by at most
// the largest single message. ionBytes is the per-pset load (e.g. from
// IONBytesFromFlows); maxMsg is the largest coalesced per-node message
// in the burst.
func CheckAggBalance(ionBytes []int64, maxMsg int64) []Violation {
	if len(ionBytes) == 0 {
		return nil
	}
	lo, hi := ionBytes[0], ionBytes[0]
	for _, b := range ionBytes[1:] {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	if hi-lo > maxMsg {
		return []Violation{{
			Invariant: "agg-balance",
			Detail:    fmt.Sprintf("I/O node byte spread %d exceeds largest message %d (loads %v)", hi-lo, maxMsg, ionBytes),
		}}
	}
	return nil
}

// CheckAggInterleave verifies the structural precondition the balance
// bound rests on: the global aggregator list cycles through the psets
// (aggs[i].Pset == i mod numPsets), so ANY prefix — which is all a burst
// with few senders uses — spreads evenly over I/O nodes, and each pset's
// aggregators alternate over its bridge nodes.
func CheckAggInterleave(aggs []core.Aggregator, numPsets, bridges int) []Violation {
	var viols []Violation
	for i, ag := range aggs {
		if ag.Pset != i%numPsets {
			viols = append(viols, Violation{
				Invariant: "agg-interleave",
				Detail:    fmt.Sprintf("aggs[%d] on pset %d, want %d", i, ag.Pset, i%numPsets),
			})
		}
		if want := (i / numPsets) % bridges; ag.Bridge != want {
			viols = append(viols, Violation{
				Invariant: "agg-interleave",
				Detail:    fmt.Sprintf("aggs[%d] on bridge %d, want %d", i, ag.Bridge, want),
			})
		}
	}
	return viols
}

// CheckRouteCache verifies that cached routes equal freshly computed
// ones for every given pair, across epochs splits with an Invalidate
// between each, and that the hit/miss counters account for every lookup
// (cache-on vs cache-off route equality across Invalidate epochs). ref
// computes the uncached route: the oracle the cache memoizes, such as a
// topology's Route — mutation tests pass a different router to prove
// the check bites.
func CheckRouteCache(c *routing.Cache, pairs [][2]torus.NodeID, epochs int, ref func(src, dst torus.NodeID) []int) []Violation {
	var viols []Violation
	for ep := 0; ep < epochs; ep++ {
		// Counter accounting is per epoch: Invalidate cold-starts the
		// cache and zeroes hits/misses (they describe the current epoch).
		h0, m0, _ := c.Counts()
		lookups := uint64(0)
		for _, pr := range pairs {
			got := c.Route(pr[0], pr[1])
			lookups++
			want := ref(pr[0], pr[1])
			if len(got.Links) != len(want) {
				viols = append(viols, Violation{
					Invariant: "route-cache",
					Detail:    fmt.Sprintf("epoch %d pair %d->%d: cached %d hops, fresh %d", ep, pr[0], pr[1], len(got.Links), len(want)),
				})
				continue
			}
			for i := range got.Links {
				if got.Links[i] != want[i] {
					viols = append(viols, Violation{
						Invariant: "route-cache",
						Detail:    fmt.Sprintf("epoch %d pair %d->%d: link %d is %d, fresh route says %d", ep, pr[0], pr[1], i, got.Links[i], want[i]),
					})
					break
				}
			}
		}
		h1, m1, _ := c.Counts()
		if got := (h1 - h0) + (m1 - m0); got != lookups {
			viols = append(viols, Violation{
				Invariant: "route-cache",
				Detail:    fmt.Sprintf("epoch %d: hits+misses advanced by %d for %d lookups", ep, got, lookups),
			})
		}
		c.Invalidate()
		if h, m, _ := c.Counts(); h != 0 || m != 0 {
			viols = append(viols, Violation{
				Invariant: "route-cache",
				Detail:    fmt.Sprintf("epoch %d: counters (%d, %d) nonzero immediately after Invalidate", ep, h, m),
			})
		}
	}
	return viols
}

// CheckCostModel verifies the Eq. 1-5 structure of the cost model for
// one (k, hops) configuration: both curves monotone in message size, the
// gain approaching its k/2 asymptote from below within the model's fixed
// overheads, and the bisected threshold actually separating the loss and
// win regions.
func CheckCostModel(m *core.CostModel, k, hopsDirect, hops1, hops2 int) []Violation {
	var viols []Violation
	sizes := []int64{1, 1 << 10, 64 << 10, 1 << 20, 64 << 20, 1 << 30}
	for i := 1; i < len(sizes); i++ {
		if m.DirectTime(sizes[i], hopsDirect) < m.DirectTime(sizes[i-1], hopsDirect) {
			viols = append(viols, Violation{
				Invariant: "cost-model",
				Detail:    fmt.Sprintf("DirectTime not monotone: t(%d) < t(%d)", sizes[i], sizes[i-1]),
			})
		}
		if m.ProxyTime(sizes[i], k, hops1, hops2) < m.ProxyTime(sizes[i-1], k, hops1, hops2) {
			viols = append(viols, Violation{
				Invariant: "cost-model",
				Detail:    fmt.Sprintf("ProxyTime not monotone: t(%d) < t(%d)", sizes[i], sizes[i-1]),
			})
		}
	}
	// Eq. 5: gain approaches k/2 from below (the fixed overheads only
	// ever subtract from it).
	asym := float64(k) / 2
	if g := m.Gain(1<<40, k, hopsDirect, hops1, hops2); g > asym*(1+1e-9) {
		viols = append(viols, Violation{
			Invariant: "cost-model",
			Detail:    fmt.Sprintf("Gain(2^40, k=%d) = %g exceeds the k/2 asymptote %g", k, g, asym),
		})
	}
	th := m.Threshold(k, hopsDirect, hops1, hops2)
	switch {
	case k <= 2:
		if th != 0 {
			viols = append(viols, Violation{
				Invariant: "cost-model",
				Detail:    fmt.Sprintf("Threshold(k=%d) = %d, want 0 (Eq. 5: k<=2 never wins)", k, th),
			})
		}
	case th > 0:
		if g := m.Gain(th, k, hopsDirect, hops1, hops2); g <= 1 {
			viols = append(viols, Violation{
				Invariant: "cost-model",
				Detail:    fmt.Sprintf("Gain at threshold %d is %g, not > 1", th, g),
			})
		}
		if th > 1 {
			if g := m.Gain(th-1, k, hopsDirect, hops1, hops2); g > 1 {
				viols = append(viols, Violation{
					Invariant: "cost-model",
					Detail:    fmt.Sprintf("Gain just below threshold (%d) is %g, already > 1", th-1, g),
				})
			}
		}
	}
	return viols
}

// The operating point's terms, restated from the paper rather than read
// from core, so that the oracle stays independent of the planner.
const (
	opLeastProxies = 3         // Eq. 5's gain is k/2: fewer than 3 cannot win
	opThreshold    = 256 << 10 // the paper's measured one-shot crossover
)

// proxyCap is the most proxies a decision under cfg may take: a forced
// k, else the 2L candidate directions.
func proxyCap(tor *torus.Torus, cfg core.ProxyConfig) int {
	if cfg.Proxies > 0 {
		return cfg.Proxies
	}
	return 2 * tor.Dims()
}

// checkDecision restates Algorithm 1's rule for one proxied decision of
// n proxies for bytes from src to dst, under cfg with the proxy count
// capped at k: a negative Proxies never proxies, the operating point (0)
// needs threshold bytes and at least opLeastProxies proxies, and a forced
// count needs at least one proxy. No decision exceeds its cap.
func checkDecision(what string, cfg core.ProxyConfig, src, dst torus.NodeID, bytes int64, n, k int, threshold int64) []Violation {
	var viols []Violation
	fail := func(format string, args ...any) {
		viols = append(viols, Violation{Invariant: "plan-model", Detail: what + ": " + fmt.Sprintf(format, args...)})
	}
	least := 1
	switch {
	case src == dst:
		fail("proxied a node-local copy %d->%d", src, dst)
	case cfg.Proxies < 0:
		fail("proxied under forced direct (proxies %d)", cfg.Proxies)
	case cfg.Proxies == 0:
		least = opLeastProxies
		if bytes < threshold {
			fail("proxied %d bytes %d->%d, but threshold %d says direct", bytes, src, dst, threshold)
		}
	}
	if n < least || n > k {
		fail("proxied over %d proxies, outside [%d,%d]", n, least, k)
	}
	return viols
}

// CheckPlanModelAgreement verifies a one-shot PlanPair decision under
// cfg: a proxied plan is only ever chosen where Algorithm 1's rule, with
// the operating point's fixed threshold, allows it, and its proxies are
// link-disjoint.
func CheckPlanModelAgreement(tor *torus.Torus, cfg core.ProxyConfig, plan core.PairPlan, src, dst torus.NodeID, bytes int64) []Violation {
	if plan.Mode != core.Proxied {
		return nil
	}
	viols := checkDecision("plan", cfg, src, dst, bytes, len(plan.Proxies), proxyCap(tor, cfg), opThreshold)
	return append(viols, CheckProxyDisjoint(plan.Proxies)...)
}

// CheckWaveModelAgreement verifies every wave decision of one
// MoveResilient transfer from src to dst under cfg, read from the
// transfer's events in order. The first wave's cap is cfg's; each
// EventReplan carries the next wave's. At the operating point a wave
// decides on the Eq. 1-5 model: it proxies only when the model's
// threshold at the wave's cap, Threshold(k, hopsDirect, 1, hopsDirect)
// (every proxy sits one hop from the source), exists and the wave's
// payload reaches it, never where the model says proxies never win.
func CheckWaveModelAgreement(tor *torus.Torus, p netsim.Params, cfg core.ProxyConfig, src, dst torus.NodeID, events []core.TransferEvent) []Violation {
	m, err := core.NewCostModel(p)
	if err != nil {
		return []Violation{{Invariant: "plan-model", Detail: err.Error()}}
	}
	hopsDirect := tor.HopDistance(src, dst)
	k := proxyCap(tor, cfg)
	var viols []Violation
	for _, ev := range events {
		switch {
		case ev.Kind == core.EventReplan:
			k = ev.Proxies
		case ev.Kind == core.EventWave && ev.Mode == core.Proxied:
			what := fmt.Sprintf("wave %d", ev.Wave)
			th := m.Threshold(k, hopsDirect, 1, hopsDirect)
			if cfg.Proxies == 0 && th == 0 {
				viols = append(viols, Violation{Invariant: "plan-model",
					Detail: fmt.Sprintf("%s: proxied %d bytes, but the model says %d proxies never win", what, ev.Bytes, k)})
				continue
			}
			viols = append(viols, checkDecision(what, cfg, src, dst, ev.Bytes, ev.Proxies, k, th)...)
		}
	}
	return viols
}

// MaxCoalescedMessage reports the largest per-node coalesced message of
// a burst: per-rank data summed onto each sender node (CheckAggBalance's
// bound input). nodeOf maps rank to node.
func MaxCoalescedMessage(data []int64, nodeOf func(int) int, numNodes int) int64 {
	perNode := make([]int64, numNodes)
	for r, d := range data {
		perNode[nodeOf(r)] += d
	}
	var max int64
	for _, b := range perNode {
		if b > max {
			max = b
		}
	}
	return max
}
