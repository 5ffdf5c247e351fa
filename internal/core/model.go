package core

import (
	"fmt"
	"math"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
)

// CostModel is the paper's Section IV-C analytic transfer-time model
// (Eqs. 1-5), instantiated with the netsim machine constants. The paper
// lists an analytical throughput model as future work; this is that
// model, and the planner can use it to pick the proxy count and the
// direct/proxy threshold instead of relying on fixed configuration.
//
// Direct transfer of d bytes over h hops (Eq. 1):
//
//	t = t_s + t_t + t_r
//	t_s = o_s + d/B          (process+queue+inject at the sender)
//	t_t = h*L + d/B          (wire time; the d/B term is already counted
//	                          in t_s's streaming, so only the first-byte
//	                          pipeline fill h*L appears separately)
//	t_r = o_r                (process+queue+store at the receiver)
//
// k-proxy transfer (Eq. 2): two store-and-forward legs of d/k bytes
// each, plus the user-space forward overhead o_f at the proxy:
//
//	t' = 2*(o_s + (d/k)/B + h'*L + o_r) + o_f
//
// The fixed per-message costs o_s, o_r, o_f do not shrink with k
// (Eq. 4's inequality), which is why small messages lose and the
// asymptotic gain is k/2 (Eq. 5).
type CostModel struct {
	p netsim.Params
}

// NewCostModel builds the model from machine constants.
func NewCostModel(p netsim.Params) (*CostModel, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &CostModel{p: p}, nil
}

// perFlowRate is the streaming rate of one uncontended path.
func (m *CostModel) perFlowRate() float64 {
	return math.Min(m.p.PerFlowBandwidth, m.p.LinkBandwidth)
}

// DirectTime predicts the time to move d bytes over a single
// deterministic path of hops links (Eq. 1).
func (m *CostModel) DirectTime(d int64, hops int) sim.Duration {
	if d < 0 || hops < 0 {
		panic(fmt.Sprintf("core: DirectTime(%d, %d)", d, hops))
	}
	return m.p.SenderOverhead + m.p.ReceiverOverhead +
		sim.Duration(float64(hops)*float64(m.p.HopLatency)) +
		sim.Duration(float64(d)/m.perFlowRate())
}

// ProxyTime predicts the time to move d bytes over k link-disjoint proxy
// paths, two store-and-forward legs each (Eq. 2). hops1 and hops2 are
// representative per-leg hop counts.
func (m *CostModel) ProxyTime(d int64, k, hops1, hops2 int) sim.Duration {
	if k < 1 {
		panic(fmt.Sprintf("core: ProxyTime with k=%d", k))
	}
	piece := float64(d) / float64(k)
	leg := func(hops int) sim.Duration {
		return m.p.SenderOverhead + m.p.ReceiverOverhead +
			sim.Duration(float64(hops)*float64(m.p.HopLatency)) +
			sim.Duration(piece/m.perFlowRate())
	}
	return leg(hops1) + leg(hops2) + m.p.ProxyForwardOverhead
}

// Gain predicts the throughput gain of k proxies over direct (Eq. 3);
// values above 1 favor the proxied transfer. As d grows the gain
// approaches k/2 (Eq. 5).
func (m *CostModel) Gain(d int64, k, hopsDirect, hops1, hops2 int) float64 {
	return float64(m.DirectTime(d, hopsDirect)) / float64(m.ProxyTime(d, k, hops1, hops2))
}

// Threshold computes the smallest message size at which k proxies beat
// the direct path, by bisection over the two monotone cost curves. It
// returns 0 when the proxied transfer never wins (k <= 2 per Eq. 5, once
// overheads are included).
func (m *CostModel) Threshold(k, hopsDirect, hops1, hops2 int) int64 {
	if k < 1 {
		return 0
	}
	// For the proxied transfer to win asymptotically we need the
	// per-byte cost 2/(k*B) < 1/B, i.e. k > 2.
	if k <= 2 {
		return 0
	}
	lo, hi := int64(1), int64(1)<<40
	if m.Gain(hi, k, hopsDirect, hops1, hops2) <= 1 {
		return 0
	}
	if m.Gain(lo, k, hopsDirect, hops1, hops2) > 1 {
		return lo
	}
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if m.Gain(mid, k, hopsDirect, hops1, hops2) > 1 {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// BestProxyCount evaluates the model for every feasible proxy count up
// to max and returns the count with the lowest predicted time (0 means
// direct wins). Hop counts are taken as representative constants; the
// decision depends on them only weakly.
func (m *CostModel) BestProxyCount(d int64, max, hopsDirect, hops1, hops2 int) int {
	best := 0
	bestTime := m.DirectTime(d, hopsDirect)
	for k := 1; k <= max; k++ {
		t := m.ProxyTime(d, k, hops1, hops2)
		if t < bestTime {
			best, bestTime = k, t
		}
	}
	return best
}
