// Package trace post-processes netsim runs into utilization reports:
// which links carried how much, how balanced the I/O-node uplinks were,
// and which links were the hot spots. The experiment harness uses these
// reports to show *why* the topology-aware mechanisms win (idle links
// under default routing, uplink imbalance under default collective I/O).
package trace

import (
	"fmt"
	"io"
	"sort"

	"bgqflow/internal/ionet"
	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
)

// LinkLoad pairs a link with the bytes it carried.
type LinkLoad struct {
	Link  int
	Bytes float64
}

// Report summarizes one finished run.
type Report struct {
	Makespan sim.Duration
	// TorusBytes and ExtraBytes split traffic between torus links and
	// registered extra links (ION uplinks).
	TorusBytes float64
	ExtraBytes float64
	// BusyTorusLinks counts torus links that carried any traffic.
	BusyTorusLinks int
	// TotalTorusLinks is the number of torus links in the network.
	TotalTorusLinks int
	// Hottest lists the most loaded links, descending.
	Hottest []LinkLoad
}

// Analyze builds a Report from a finished engine run.
func Analyze(e *netsim.Engine, makespan sim.Duration, topN int) Report {
	r := Report{Makespan: makespan, TotalTorusLinks: e.Network().NumTorusLinks()}
	lb := e.LinkBytes()
	loads := make([]LinkLoad, 0, 64)
	for l, b := range lb {
		if b <= 0 {
			continue
		}
		if l < r.TotalTorusLinks {
			r.TorusBytes += b
			r.BusyTorusLinks++
		} else {
			r.ExtraBytes += b
		}
		loads = append(loads, LinkLoad{Link: l, Bytes: b})
	}
	sort.Slice(loads, func(i, j int) bool { return loads[i].Bytes > loads[j].Bytes })
	if topN > len(loads) {
		topN = len(loads)
	}
	r.Hottest = loads[:topN]
	return r
}

// LinkUtilization returns a link's average utilization over the run.
func LinkUtilization(e *netsim.Engine, makespan sim.Duration, link int) float64 {
	if makespan <= 0 {
		return 0
	}
	return e.LinkBytesOf(link) / (e.Network().Capacity(link) * float64(makespan))
}

// UplinkLoads returns the bytes carried by every ION uplink, in pset then
// bridge order.
func UplinkLoads(e *netsim.Engine, ios *ionet.System) []float64 {
	lb := e.LinkBytes()
	out := make([]float64, 0, ios.NumPsets()*ionet.BridgesPerPset)
	for pi := 0; pi < ios.NumPsets(); pi++ {
		ps := ios.Pset(pi)
		for bi := range ps.Bridges {
			out = append(out, lb[ps.Uplink(bi)])
		}
	}
	return out
}

// WriteTo renders the report for humans.
func (r Report) WriteTo(w io.Writer, e *netsim.Engine) error {
	if _, err := fmt.Fprintf(w,
		"makespan %.3fms; torus traffic %.2f GB over %d/%d links; uplink traffic %.2f GB\n",
		float64(r.Makespan)*1e3, r.TorusBytes/1e9, r.BusyTorusLinks, r.TotalTorusLinks,
		r.ExtraBytes/1e9); err != nil {
		return err
	}
	for _, ll := range r.Hottest {
		util := LinkUtilization(e, r.Makespan, ll.Link)
		if _, err := fmt.Fprintf(w, "  %-40s %8.2f MB  util %.0f%%\n",
			e.Network().LinkName(ll.Link), ll.Bytes/1e6, util*100); err != nil {
			return err
		}
	}
	return nil
}
