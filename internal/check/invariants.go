package check

import (
	"fmt"
	"math"

	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
)

// Violation is one invariant breach found by the Auditor or a standalone
// checker.
type Violation struct {
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string { return v.Invariant + ": " + v.Detail }

// Auditor attaches to a live netsim engine and checks run-time
// invariants as the run unfolds:
//
//   - capacity: after a sampled subset of waterfill sweeps, the summed
//     rate over every link stays within its capacity, and no flow
//     exceeds its endpoint cap (ISSUE: "per-link capacity never
//     exceeded in any waterfill round");
//   - conservation: the per-link sum of LinkWindow charges equals the
//     engine's cumulative LinkBytes counters, and — on abort-free runs —
//     each link's bytes equal the sum of sizes of the completed flows
//     routed over it (delivered == submitted).
//
// It keeps only O(links) state (a running sum per link, never a full
// timeline), so it is safe to leave attached on 131k-core experiment
// runs under bgqbench -check. An Auditor claims the engine's Sink; it
// cannot be combined with -obs-trace/-metrics.
type Auditor struct {
	e        *netsim.Engine
	sums     []float64
	sweeps   int
	audited  int
	capScale float64 // mutation-test hook: audit against capacity*capScale
	viols    []Violation
}

// capTol absorbs waterfill rounding: freezing k flows at a level adds k
// rounded contributions to a link's load.
const capTol = 1e-6

// NewAuditor builds an auditor for e and attaches it. The engine must
// not have a Sink installed (the auditor needs the LinkWindow stream).
func NewAuditor(e *netsim.Engine) *Auditor {
	a := &Auditor{
		e:        e,
		sums:     make([]float64, e.Network().NumLinks()),
		capScale: 1,
	}
	if e.Sink() != nil {
		panic("check: NewAuditor on an engine that already has a sink")
	}
	e.SetSink(auditSink{a})
	return a
}

// afterSweep audits the allocation the waterfill just produced. Sweeps
// are sampled — the first 64 and then every 32nd — because a full audit
// is O(flows·links) and dense runs sweep millions of times; the sampled
// set still covers every early allocation shape plus a steady trickle.
func (a *Auditor) afterSweep(now sim.Time) {
	a.sweeps++
	if a.sweeps > 64 && a.sweeps%32 != 0 {
		return
	}
	a.audited++
	load := make([]float64, len(a.sums))
	for _, id := range a.e.ActiveFlowIDs() {
		rate, active := a.e.FlowRate(id)
		if !active {
			continue
		}
		if cap := a.e.FlowRateCap(id); rate > cap*(1+capTol) {
			a.viols = append(a.viols, Violation{
				Invariant: "capacity",
				Detail:    fmt.Sprintf("t=%g flow %d rate %g exceeds cap %g", float64(now), id, rate, cap),
			})
		}
		for _, l := range a.e.FlowRouteLinks(id) {
			load[l] += rate
		}
	}
	for l, ld := range load {
		if c := a.e.Network().Capacity(l) * a.capScale; ld > c*(1+capTol) {
			a.viols = append(a.viols, Violation{
				Invariant: "capacity",
				Detail:    fmt.Sprintf("t=%g link %d load %g exceeds capacity %g", float64(now), l, ld, c),
			})
		}
	}
}

// Finish runs the end-of-run conservation checks and returns every
// violation observed. Call it after Engine.Run returns.
func (a *Auditor) Finish() []Violation {
	linkBytes := a.e.LinkBytes()
	for l, sum := range a.sums {
		if !closeTo(sum, linkBytes[l], bytesRTol, bytesATol) {
			a.viols = append(a.viols, Violation{
				Invariant: "conservation",
				Detail:    fmt.Sprintf("link %d window charges sum to %g, counter says %g", l, sum, linkBytes[l]),
			})
		}
	}
	// delivered == submitted, checkable externally only when no flow was
	// cut mid-transfer (an aborted flow legitimately leaves partial bytes
	// on its links).
	anyAborted := false
	expect := make([]float64, len(linkBytes))
	for i := 0; i < a.e.NumFlows(); i++ {
		r := a.e.Result(netsim.FlowID(i))
		if r.Aborted {
			anyAborted = true
			break
		}
		if !r.Done {
			continue
		}
		for _, l := range a.e.FlowRouteLinks(netsim.FlowID(i)) {
			expect[l] += float64(a.e.Spec(netsim.FlowID(i)).Bytes)
		}
	}
	if !anyAborted {
		for l := range expect {
			if !closeTo(expect[l], linkBytes[l], bytesRTol, bytesATol) {
				a.viols = append(a.viols, Violation{
					Invariant: "conservation",
					Detail:    fmt.Sprintf("link %d carried %g bytes, completed flows submitted %g", l, linkBytes[l], expect[l]),
				})
			}
		}
	}
	return a.viols
}

// SweepsAudited reports how many sweeps the capacity audit sampled.
func (a *Auditor) SweepsAudited() int { return a.audited }

// auditSink feeds the auditor: LinkWindow its per-link running sums,
// SweepDone its capacity audit; every other emission is a no-op.
type auditSink struct{ a *Auditor }

var _ obs.Sink = auditSink{}

func (auditSink) FlowActivated(now sim.Time, id int, label string) {}
func (auditSink) FlowEnded(now, activated sim.Time, id int, label string, bytes int64, aborted bool) {
}
func (auditSink) FailureApplied(now sim.Time, node int, isNode bool, links int) {}

func (s auditSink) SweepDone(now sim.Time, flows, links int, full bool) { s.a.afterSweep(now) }

func (s auditSink) LinkWindow(link int, from, to sim.Time, bytes float64) {
	if link >= 0 && link < len(s.a.sums) {
		s.a.sums[link] += bytes
	}
}

// CheckTimelineConservation verifies that a LinkTimeline integrates to
// the engine's cumulative per-link counters within a ULP-scaled
// tolerance (ISSUE: "LinkTimeline integrates to LinkBytes within 1 ULP-
// scaled tolerance"): bucket-spreading a window performs one add per
// bucket it covers, so the allowed error grows with the bucket count.
func CheckTimelineConservation(tl *obs.LinkTimeline, linkBytes []float64) []Violation {
	var viols []Violation
	for l, want := range linkBytes {
		got := tl.TotalBytes(l)
		n := len(tl.Series(l))
		tol := math.Max(1, float64(n)) * ulp(want)
		if math.Abs(got-want) > tol {
			viols = append(viols, Violation{
				Invariant: "timeline",
				Detail:    fmt.Sprintf("link %d timeline sums to %g, counter says %g (tol %g)", l, got, want, tol),
			})
		}
	}
	return viols
}

// ulp returns the spacing of float64 values at magnitude x.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}
