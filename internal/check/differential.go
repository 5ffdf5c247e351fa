package check

import (
	"fmt"
	"math"

	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// RunOutput is an engine-neutral record of one finished run: everything
// the differential comparison looks at, and nothing else (notably no
// makespan — the clocks stop at different final events by design).
type RunOutput struct {
	Flows     []RefResult `json:"flows"`
	LinkBytes []float64   `json:"link_bytes"`
}

// Divergence is one observed disagreement between two engines.
type Divergence struct {
	Kind   string `json:"kind"` // "error", "outcome", "time", "link_bytes"
	Flow   int    `json:"flow,omitempty"`
	Link   int    `json:"link,omitempty"`
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	s := d.Kind
	if d.Kind == "link_bytes" {
		s += fmt.Sprintf(" link=%d", d.Link)
	} else if d.Kind != "error" {
		s += fmt.Sprintf(" flow=%d", d.Flow)
	}
	return s + ": " + d.Detail
}

// RunNetsim executes a scenario on the optimized engine. hook, when
// non-nil, runs on the engine before any flow is submitted (bgqbench and
// the invariant tests attach an Auditor here).
func RunNetsim(sc Scenario, hook func(*netsim.Engine)) (RunOutput, error) {
	tp, err := sc.fabric()
	if err != nil {
		return RunOutput{}, err
	}
	net := netsim.NewNetworkTopo(tp, sc.Params.LinkBandwidth)
	for i, ex := range sc.Extra {
		net.AddLinkFrom(fmt.Sprintf("extra%d", i), torus.NodeID(ex.From), ex.Capacity)
	}
	e, err := netsim.NewEngine(net, netsim.Params{
		LinkBandwidth:      sc.Params.LinkBandwidth,
		PerFlowBandwidth:   sc.Params.PerFlowBandwidth,
		LocalCopyBandwidth: sc.Params.LocalCopyBandwidth,
		SenderOverhead:     sim.Duration(sc.Params.SenderOverhead),
		ReceiverOverhead:   sim.Duration(sc.Params.ReceiverOverhead),
		HopLatency:         sim.Duration(sc.Params.HopLatency),
	})
	if err != nil {
		return RunOutput{}, err
	}
	if hook != nil {
		hook(e)
	}
	for i, f := range sc.Flows {
		spec := netsim.FlowSpec{
			Src:        torus.NodeID(f.Src),
			Dst:        torus.NodeID(f.Dst),
			Bytes:      f.Bytes,
			ExtraDelay: sim.Duration(f.ExtraDelay),
			Label:      fmt.Sprintf("sc%d", i),
		}
		if f.HasLinks {
			spec.Links = append([]int{}, f.Links...)
		}
		for _, dep := range f.Deps {
			spec.DependsOn = append(spec.DependsOn, netsim.FlowID(dep))
		}
		e.Submit(spec)
	}
	for _, lf := range sc.LinkFailures {
		e.FailLinkAt(lf.Link, sim.Time(lf.At))
	}
	for _, nf := range sc.NodeFailures {
		e.FailNodeAt(torus.NodeID(nf.Node), sim.Time(nf.At))
	}
	if _, err := e.Run(); err != nil {
		return RunOutput{}, err
	}
	out := RunOutput{LinkBytes: e.LinkBytes()}
	for i := 0; i < e.NumFlows(); i++ {
		r := e.Result(netsim.FlowID(i))
		out.Flows = append(out.Flows, RefResult{
			Released:    float64(r.Released),
			Activated:   float64(r.Activated),
			TransferEnd: float64(r.TransferEnd),
			Completed:   float64(r.Completed),
			Done:        r.Done,
			Aborted:     r.Aborted,
			AbortTime:   float64(r.AbortTime),
		})
	}
	return out, nil
}

// RunRef executes a scenario on the reference engine.
func RunRef(sc Scenario) (RunOutput, error) {
	tp, err := sc.fabric()
	if err != nil {
		return RunOutput{}, err
	}
	r := NewRefEngine(tp, sc.Params)
	for _, ex := range sc.Extra {
		r.AddLinkFrom(torus.NodeID(ex.From), ex.Capacity)
	}
	for _, f := range sc.Flows {
		r.Submit(RefFlowSpec{
			Src:        torus.NodeID(f.Src),
			Dst:        torus.NodeID(f.Dst),
			Bytes:      f.Bytes,
			Links:      f.Links,
			HasLinks:   f.HasLinks,
			DependsOn:  f.Deps,
			ExtraDelay: f.ExtraDelay,
		})
	}
	for _, lf := range sc.LinkFailures {
		r.FailLinkAt(lf.Link, lf.At)
	}
	for _, nf := range sc.NodeFailures {
		r.FailNodeAt(torus.NodeID(nf.Node), nf.At)
	}
	if err := r.Run(); err != nil {
		return RunOutput{}, err
	}
	out := RunOutput{LinkBytes: r.LinkBytes()}
	for i := 0; i < r.NumFlows(); i++ {
		out.Flows = append(out.Flows, r.Result(i))
	}
	return out, nil
}

// Comparison tolerances. Times are pure float arithmetic in both engines
// with identical formulas, so they agree to relative rounding noise;
// link bytes accumulate over many waterfill windows in different orders,
// so they get an absolute floor of a fraction of one byte on top.
const (
	timeRTol  = 1e-6
	timeATol  = 1e-12
	bytesRTol = 1e-6
	bytesATol = 1e-3
)

func closeTo(a, b, rtol, atol float64) bool {
	d := math.Abs(a - b)
	return d <= atol+rtol*math.Max(math.Abs(a), math.Abs(b))
}

// CompareRuns diffs two run records: flow outcomes exactly, flow
// timelines and per-link bytes within tolerance. Outcome mismatches
// suppress the time diff for that flow (the times are meaningless when
// one engine aborted and the other completed).
func CompareRuns(got, want RunOutput) []Divergence {
	var divs []Divergence
	if len(got.Flows) != len(want.Flows) {
		return append(divs, Divergence{
			Kind:   "outcome",
			Detail: fmt.Sprintf("flow count %d vs %d", len(got.Flows), len(want.Flows)),
		})
	}
	for i := range got.Flows {
		g, w := got.Flows[i], want.Flows[i]
		if g.Done != w.Done || g.Aborted != w.Aborted {
			divs = append(divs, Divergence{
				Kind: "outcome", Flow: i,
				Detail: fmt.Sprintf("done=%v/aborted=%v vs done=%v/aborted=%v", g.Done, g.Aborted, w.Done, w.Aborted),
			})
			continue
		}
		fields := []struct {
			name string
			g, w float64
		}{
			{"released", g.Released, w.Released},
			{"activated", g.Activated, w.Activated},
			{"transfer_end", g.TransferEnd, w.TransferEnd},
			{"completed", g.Completed, w.Completed},
			{"abort_time", g.AbortTime, w.AbortTime},
		}
		for _, f := range fields {
			if !closeTo(f.g, f.w, timeRTol, timeATol) {
				divs = append(divs, Divergence{
					Kind: "time", Flow: i,
					Detail: fmt.Sprintf("%s %.12g vs %.12g (delta %g)", f.name, f.g, f.w, f.g-f.w),
				})
			}
		}
	}
	if len(got.LinkBytes) != len(want.LinkBytes) {
		return append(divs, Divergence{
			Kind:   "link_bytes",
			Detail: fmt.Sprintf("link count %d vs %d", len(got.LinkBytes), len(want.LinkBytes)),
		})
	}
	for l := range got.LinkBytes {
		if !closeTo(got.LinkBytes[l], want.LinkBytes[l], bytesRTol, bytesATol) {
			divs = append(divs, Divergence{
				Kind: "link_bytes", Link: l,
				Detail: fmt.Sprintf("%.12g vs %.12g (delta %g)", got.LinkBytes[l], want.LinkBytes[l], got.LinkBytes[l]-want.LinkBytes[l]),
			})
		}
	}
	return divs
}

// RunDifferential runs a scenario through the netsim engine and the
// reference engine and returns every divergence: rates, completion
// times, and per-link bytes must agree, including under fault campaigns,
// so the comparison pins both the model and the incremental sweep's
// dirty-set cutoff. An error in one engine but not the other is itself a
// divergence; an error in both (same scenario defect seen everywhere) is
// clean.
func RunDifferential(sc Scenario) []Divergence {
	netOut, netErr := RunNetsim(sc, nil)
	refOut, refErr := RunRef(sc)
	if netErr != nil || refErr != nil {
		if netErr != nil && refErr != nil {
			return nil
		}
		return []Divergence{{
			Kind:   "error",
			Detail: fmt.Sprintf("netsim err=%v, ref err=%v", netErr, refErr),
		}}
	}
	return CompareRuns(netOut, refOut)
}
