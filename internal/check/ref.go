// Package check is the repo's differential oracle (DESIGN.md §11): a
// deliberately naive reference simulator, an invariant suite over
// finished netsim runs and planner outputs, and a deterministic seeded
// scenario generator. The optimized engine earned its speed through
// arenas, scratch reuse, component-scoped sweeps, and a route cache;
// this package exists to prove none of that changed the physics.
package check

import (
	"fmt"
	"math"

	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// RefParams mirrors the machine constants of the optimized engine as
// plain float64 seconds and bytes/second. The reference engine shares
// only the torus/topology and routing types with netsim — even the
// parameter struct is independent, so a unit mix-up in either engine
// surfaces as a differential failure instead of being definitionally
// identical.
type RefParams struct {
	LinkBandwidth      float64 `json:"link_bandwidth"`
	PerFlowBandwidth   float64 `json:"per_flow_bandwidth"`
	LocalCopyBandwidth float64 `json:"local_copy_bandwidth"`
	SenderOverhead     float64 `json:"sender_overhead"`
	ReceiverOverhead   float64 `json:"receiver_overhead"`
	HopLatency         float64 `json:"hop_latency"`
}

// RefFlowSpec describes one transfer for the reference engine. The
// fields mirror netsim.FlowSpec; HasLinks distinguishes an explicit
// empty route (a local copy over no links) from "compute the default
// deterministic route".
type RefFlowSpec struct {
	Src, Dst   torus.NodeID
	Bytes      int64
	Links      []int
	HasLinks   bool
	DependsOn  []int
	ExtraDelay float64
	Label      string
}

// RefResult is the reference engine's per-flow timeline, mirroring
// netsim.FlowResult.
type RefResult struct {
	Released    float64 `json:"released"`
	Activated   float64 `json:"activated"`
	TransferEnd float64 `json:"transfer_end"`
	Completed   float64 `json:"completed"`
	Done        bool    `json:"done"`
	Aborted     bool    `json:"aborted"`
	AbortTime   float64 `json:"abort_time"`
}

type refState uint8

const (
	refPending refState = iota
	refDelayed
	refActive
	refDraining
	refDone
	refAborted
)

type refFlow struct {
	spec       RefFlowSpec
	links      []int
	cap        float64
	unmet      int
	dependents []int
	state      refState
	timer      float64 // next transition instant (delayed/draining)
	remaining  float64
	rate       float64
	res        RefResult
}

type refFailure struct {
	at    float64
	links []int
	done  bool
}

// RefEngine is the naive reference simulator: the same fluid-flow
// physics as netsim — max-min fair waterfilling, sender/receiver
// overheads, hop latency tails, fail-stop aborts with dependency
// cascades — written for obviousness. Every event recomputes one global
// waterfill from scratch over every active flow and every link,
// O(flows² · links); nothing is cached, pooled, batched, or scoped to a
// component. It exists to be compared against, not to be fast.
type RefEngine struct {
	tp        topo.Topology
	p         RefParams
	caps      []float64
	failed    []bool
	extraFrom map[torus.NodeID][]int
	flows     []*refFlow
	linkBytes []float64
	failures  []refFailure
	now       float64
	resolved  int
}

// NewRefEngine builds a reference engine over a topology's base links:
// each link's capacity is LinkBandwidth times the topology's rail
// multiplier (exactly 1.0 on a torus). Endpoint costs come from p.
func NewRefEngine(tp topo.Topology, p RefParams) *RefEngine {
	caps := make([]float64, tp.NumLinks())
	for i := range caps {
		caps[i] = p.LinkBandwidth * tp.LinkCapacity(i)
	}
	return &RefEngine{
		tp:        tp,
		p:         p,
		caps:      caps,
		failed:    make([]bool, len(caps)),
		extraFrom: make(map[torus.NodeID][]int),
		linkBytes: make([]float64, len(caps)),
	}
}

// AddLinkFrom registers an extra link owned by a torus node (the 11th
// link idiom) and returns its ID; node failure of the owner fails it.
func (r *RefEngine) AddLinkFrom(from torus.NodeID, capacity float64) int {
	if capacity <= 0 {
		panic(fmt.Sprintf("check: extra link capacity %g", capacity))
	}
	id := len(r.caps)
	r.caps = append(r.caps, capacity)
	r.failed = append(r.failed, false)
	r.linkBytes = append(r.linkBytes, 0)
	r.extraFrom[from] = append(r.extraFrom[from], id)
	return id
}

// Submit registers a flow and returns its index. Dependencies must name
// already-submitted flows.
func (r *RefEngine) Submit(spec RefFlowSpec) int {
	if spec.Bytes < 0 {
		panic(fmt.Sprintf("check: negative flow size %d", spec.Bytes))
	}
	f := &refFlow{spec: spec, cap: r.p.PerFlowBandwidth}
	switch {
	case spec.HasLinks:
		// A flow occupies a set of links: a route listing a link twice
		// still claims it once and moves each byte across it once.
		f.links = dedupRefLinks(spec.Links)
		if len(f.links) == 0 {
			f.cap = r.p.LocalCopyBandwidth
		}
	case spec.Src == spec.Dst:
		f.cap = r.p.LocalCopyBandwidth
	default:
		f.links = r.tp.Route(spec.Src, spec.Dst)
	}
	for _, l := range f.links {
		if l < 0 || l >= len(r.caps) {
			panic(fmt.Sprintf("check: flow routed over unknown link %d", l))
		}
		if r.failed[l] {
			panic(fmt.Sprintf("check: flow routed over failed link %d", l))
		}
	}
	id := len(r.flows)
	for _, dep := range spec.DependsOn {
		if dep < 0 || dep >= id {
			panic(fmt.Sprintf("check: flow %d depends on unknown flow %d", id, dep))
		}
		r.flows[dep].dependents = append(r.flows[dep].dependents, id)
		f.unmet++
	}
	r.flows = append(r.flows, f)
	return id
}

// FailLinkAt schedules one link to fail at absolute time at.
func (r *RefEngine) FailLinkAt(link int, at float64) {
	if link < 0 || link >= len(r.caps) {
		panic(fmt.Sprintf("check: FailLinkAt(%d) outside link table", link))
	}
	r.failures = append(r.failures, refFailure{at: at, links: []int{link}})
}

// FailNodeAt schedules a whole-node failure: every base-fabric link
// that dies with the node plus its registered extra links.
func (r *RefEngine) FailNodeAt(n torus.NodeID, at float64) {
	var links []int
	add := func(l int) {
		for _, s := range links {
			if s == l {
				return
			}
		}
		links = append(links, l)
	}
	for _, l := range r.tp.NodeLinks(n) {
		add(l)
	}
	for _, l := range r.extraFrom[n] {
		add(l)
	}
	r.failures = append(r.failures, refFailure{at: at, links: links})
}

// Run executes all submitted flows to resolution (done or aborted). It
// errors when the dependency graph leaves flows unreleasable, or when
// the waterfill cannot make progress (both mirror netsim panics/errors).
func (r *RefEngine) Run() error {
	for _, f := range r.flows {
		if f.unmet == 0 {
			r.release(f, 0)
		}
	}
	for r.resolved < len(r.flows) {
		if err := r.assignRates(); err != nil {
			return err
		}
		// Next event: the earliest pending failure, flow timer, or active
		// transfer completion.
		t := math.Inf(1)
		for i := range r.failures {
			if !r.failures[i].done && r.failures[i].at < t {
				t = r.failures[i].at
			}
		}
		for _, f := range r.flows {
			switch f.state {
			case refDelayed, refDraining:
				if f.timer < t {
					t = f.timer
				}
			case refActive:
				if end := r.now + f.remaining/f.rate; end < t {
					t = end
				}
			}
		}
		if math.IsInf(t, 1) {
			return fmt.Errorf("check: reference engine stuck with %d unresolved flows (dependency cycle)", len(r.flows)-r.resolved)
		}
		// Charge progress over [now, t] at the current rates. A flow whose
		// completion lands exactly at t is charged its full remainder, as
		// the optimized engine does at transferEnd.
		for _, f := range r.flows {
			if f.state != refActive {
				continue
			}
			moved := f.rate * (t - r.now)
			if r.now+f.remaining/f.rate == t || moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, l := range f.links {
				r.linkBytes[l] += moved
			}
		}
		r.now = t
		// Same-instant ordering mirrors the optimized engine's FIFO clock:
		// failure events were scheduled before Run and fire before any flow
		// timer queued during the run; transfer ends, finishes, and
		// activations at one instant all precede the single batched rate
		// sweep, so their relative order cannot affect rates.
		r.applyFailuresAt(t)
		for _, f := range r.flows {
			if f.state == refActive && f.remaining == 0 {
				r.transferEnd(f)
			}
		}
		for _, f := range r.flows {
			if f.state == refDraining && f.timer == t {
				r.finishFlow(f)
			}
		}
		for _, f := range r.flows {
			if f.state == refDelayed && f.timer == t {
				r.activate(f)
			}
		}
	}
	return nil
}

// Now reports the reference clock (the time of the last processed event).
func (r *RefEngine) Now() float64 { return r.now }

// NumFlows reports the number of submitted flows.
func (r *RefEngine) NumFlows() int { return len(r.flows) }

// Result returns a flow's timeline after Run.
func (r *RefEngine) Result(id int) RefResult { return r.flows[id].res }

// LinkBytes returns the cumulative bytes carried per link.
func (r *RefEngine) LinkBytes() []float64 {
	return append([]float64(nil), r.linkBytes...)
}

func (r *RefEngine) release(f *refFlow, t float64) {
	f.state = refDelayed
	f.res.Released = t
	f.timer = t + r.p.SenderOverhead + f.spec.ExtraDelay
}

func (r *RefEngine) activate(f *refFlow) {
	f.state = refActive
	f.res.Activated = r.now
	f.remaining = float64(f.spec.Bytes)
	f.rate = 0
	if f.spec.Bytes == 0 {
		r.transferEnd(f)
	}
}

func (r *RefEngine) transferEnd(f *refFlow) {
	f.state = refDraining
	f.res.TransferEnd = r.now
	f.rate = 0
	f.timer = r.now + r.p.ReceiverOverhead + r.p.HopLatency*float64(len(f.links))
}

func (r *RefEngine) finishFlow(f *refFlow) {
	f.state = refDone
	f.res.Completed = r.now
	f.res.Done = true
	r.resolved++
	for _, dep := range f.dependents {
		d := r.flows[dep]
		d.unmet--
		if d.unmet == 0 && d.state == refPending {
			r.release(d, r.now)
		}
	}
}

// applyFailuresAt fires every failure scheduled for instant t, in
// scheduling order: newly dead links are marked, and every flow whose
// route crosses one and whose transfer has not yet left the wire aborts,
// cascading to its dependents. Draining and done flows survive.
func (r *RefEngine) applyFailuresAt(t float64) {
	for i := range r.failures {
		fe := &r.failures[i]
		if fe.done || fe.at != t {
			continue
		}
		fe.done = true
		var newly []int
		for _, l := range fe.links {
			if !r.failed[l] {
				newly = append(newly, l)
				r.failed[l] = true
			}
		}
		if len(newly) == 0 {
			continue
		}
		for _, f := range r.flows {
			if f.state == refDone || f.state == refAborted || f.state == refDraining {
				continue
			}
		crossing:
			for _, l := range f.links {
				for _, dead := range newly {
					if l == dead {
						r.abort(f, t)
						break crossing
					}
				}
			}
		}
	}
}

func (r *RefEngine) abort(f *refFlow, t float64) {
	switch f.state {
	case refDone, refAborted, refDraining:
		return
	}
	f.state = refAborted
	f.rate = 0
	f.res.Aborted = true
	f.res.AbortTime = t
	r.resolved++
	for _, dep := range f.dependents {
		r.abort(r.flows[dep], t)
	}
}

// assignRates recomputes a global max-min fair allocation from scratch:
// the shared level of all unfrozen flows rises until a link saturates or
// a flow hits its endpoint cap; those flows freeze at the level; repeat.
// The slack arithmetic and the eps used to group near-tied constraints
// are the same expressions netsim's waterfill uses, so the two engines
// freeze the same flows at the same levels up to float noise.
func (r *RefEngine) assignRates() error {
	var active []*refFlow
	for _, f := range r.flows {
		if f.state == refActive {
			active = append(active, f)
		}
	}
	if len(active) == 0 {
		return nil
	}
	load := make([]float64, len(r.caps))
	unfrozen := make([]int, len(r.caps))
	for _, f := range active {
		for _, l := range f.links {
			unfrozen[l]++
		}
	}
	frozen := make([]bool, len(active))
	for left := len(active); left > 0; {
		level := math.Inf(1)
		for l := range r.caps {
			if unfrozen[l] > 0 {
				if s := (r.caps[l] - load[l]) / float64(unfrozen[l]); s < level {
					level = s
				}
			}
		}
		for i, f := range active {
			if !frozen[i] && f.cap < level {
				level = f.cap
			}
		}
		if level < 0 {
			level = 0
		}
		eps := level*1e-9 + 1e-15
		progress := false
		for i, f := range active {
			if frozen[i] {
				continue
			}
			bound := f.cap <= level+eps
			if !bound {
				for _, l := range f.links {
					if unfrozen[l] > 0 && (r.caps[l]-load[l])/float64(unfrozen[l]) <= level+eps {
						bound = true
						break
					}
				}
			}
			if !bound {
				continue
			}
			frozen[i] = true
			f.rate = level
			for _, l := range f.links {
				load[l] += level
				unfrozen[l]--
			}
			left--
			progress = true
		}
		if !progress {
			return fmt.Errorf("check: reference waterfill made no progress")
		}
	}
	for _, f := range active {
		if f.rate <= 0 {
			return fmt.Errorf("check: reference flow allocated zero rate")
		}
	}
	return nil
}

// dedupRefLinks returns links with duplicates removed, first-occurrence
// order preserved.
func dedupRefLinks(links []int) []int {
	out := make([]int, 0, len(links))
	for _, l := range links {
		dup := false
		for _, seen := range out {
			if seen == l {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	return out
}
