package netsim

import (
	"fmt"
	"math"

	"bgqflow/internal/obs"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// FlowID identifies a flow submitted to an Engine.
type FlowID int

// FlowSpec describes one message transfer.
type FlowSpec struct {
	// Src and Dst are the endpoint nodes. If they are equal the flow is a
	// node-local copy and uses no links.
	Src, Dst torus.NodeID

	// Bytes is the message size. Zero-byte flows complete after their
	// endpoint overheads; they are useful as pure synchronization points.
	Bytes int64

	// Links is the route. When nil and Src != Dst, the engine computes
	// the BG/Q default deterministic route. Callers building I/O flows
	// append extra link IDs (bridge-to-ION links) explicitly.
	Links []int

	// DependsOn lists flows that must complete before this flow is
	// released. This expresses store-and-forward: a proxy's second-leg
	// flow depends on the corresponding first-leg flow.
	DependsOn []FlowID

	// ExtraDelay is charged once at release time in addition to the
	// sender overhead; transfer plans use it for the user-space proxy
	// forwarding cost.
	ExtraDelay sim.Duration

	// Label tags the flow in results and diagnostics.
	Label string

	// OnComplete, when set, runs as the flow completes (after the
	// receiver overhead, before dependents are released). Used by the
	// SPMD runtime to unblock rank goroutines.
	OnComplete func()
}

// FlowResult reports the timeline of a completed or aborted flow.
type FlowResult struct {
	Released    sim.Time // dependencies satisfied
	Activated   sim.Time // sender overhead paid, transfer started
	TransferEnd sim.Time // last byte left the wire
	Completed   sim.Time // receiver overhead paid, dependents released
	Bytes       int64
	Done        bool
	// Aborted reports that the flow was cut by a failure event — its
	// route crossed a link that failed while the flow was in flight (or
	// pending), or one of its dependencies aborted. AbortTime is the
	// failure instant. Done and Aborted are mutually exclusive; a flow
	// whose transfer had already left the wire (draining) completes.
	Aborted   bool
	AbortTime sim.Time
}

type flowState uint8

const (
	statePending  flowState = iota // waiting on dependencies
	stateDelayed                   // released, paying sender overhead
	stateActive                    // transferring
	stateDraining                  // transfer done, paying receiver overhead
	stateDone
	stateAborted // cut by a failure event
)

// flowEvent names the clock event a flow is waiting on. Each flow has at
// most one pending timer at a time (release -> activate, transfer end ->
// finish, or the rate-dependent end of an active transfer), so a single
// kind field on the flow is enough for the engine's allocation-free event
// dispatch (sim.Callback).
type flowEvent uint8

const (
	evActivate flowEvent = iota
	evTransferEnd
	evFinish
)

// flow is a flow's hot record: what Submit, the sweeps and the clock
// events read. The first cache line holds every field the sweep loops
// touch; the rest is read once or twice per flow lifetime. A flow's
// route, dependencies, label and callback live in the engine's side
// table (flowCold), and only when it has one of them, so a flow of
// endpoints, size and delay costs this record alone. TestFlowRecordLayout
// pins the size and the first line.
type flow struct {
	rate      float64 // current allocation, bytes/second
	visit     uint64  // component-BFS / dirty-set epoch stamp
	dIdx      int32   // position in the current dirty set (valid when visit matches)
	state     flowState
	next      flowEvent // which event the pending timer fires
	hasEnd    bool
	cap       float64 // per-flow rate cap
	slots     []int32 // engine slot of each link of the route
	remaining float64 // bytes left to transfer

	lastUpdate sim.Time
	endEvent   sim.EventID
	id         int32 // the flow's FlowID
	cold       int32 // index of the flow's side-table entry plus one; 0: none
	// The timeline FlowResult reports. end is the completion instant of
	// a done flow and the abort instant of an aborted one.
	released, activated, transferEnd, end sim.Time
	src, dst                              torus.NodeID
	bytes                                 int64
	extraDelay                            sim.Duration
}

// linkSlot is a slot's record: everything a sweep reads or writes about
// one link, so a sweep that visits a slot touches one record.
// TestLinkSlotLayout pins its size.
type linkSlot struct {
	flows []*flow // active flows on the link
	visit uint64  // component-BFS / region epoch stamp
	cap   float64 // link capacity, bytes/second
	bytes float64 // cumulative bytes carried
	index int32   // scratch: the link's local index in the current waterfill
}

// flowCold is a flow's side-table entry: the FlowSpec fields the sweeps
// never read, and the dependency bookkeeping. Only a flow with DependsOn
// can have unmet dependencies, and only a flow another one depends on
// has dependents, so neither needs room in every hot record.
type flowCold struct {
	links      []int // FlowSpec.Links as submitted
	dependsOn  []FlowID
	label      string
	onComplete func()
	dependents []FlowID // flows waiting on this one
	unmetDeps  int      // dependencies not yet done
}

// Engine executes a DAG of flows over a Network and reports per-flow
// timing. Submit all flows, then call Run once.
type Engine struct {
	net   *Network
	p     Params
	clock *sim.Engine

	flows []*flow
	// cold is the append-only side table of flowCold entries (see flow):
	// it grows by append, so no flow causes an allocation of its own.
	cold []flowCold

	// Per-link state exists only for links a submitted flow uses. slotOf
	// maps a link ID to its slot plus one (0: no flow has used the link);
	// slots are handed out in first-use order, so a plan's engine costs
	// the links it touches, not the links the machine has. Submit only
	// numbers a slot and appends its link to slotLink; the slots' records
	// are built once, when Run or BeginInteractive starts, and an
	// interactive Submit appends the record of each slot it makes.
	slotOf   []int32
	slotLink []int32    // slot -> link ID
	rec      []linkSlot // slot -> record; nil before Run
	epoch    uint64

	// Flow structs and their slot lists are carved out of arena blocks so
	// steady-state Submit performs no per-flow allocation (Reserve
	// pre-sizes both). reserved counts the Submit calls the last Reserve
	// still covers; the slot arena sizes its next block for them from
	// slotsUsed, the slot-list entries handed out so far.
	arena     []flow
	arenaUsed int
	slotArena []int32
	slotsUsed int
	reserved  int

	// Scratch buffers reused across component/waterfill sweeps; per-sweep
	// make()s were the simulator's dominant allocation source.
	compFlows    []*flow
	compLinks    []int32
	compQueue    []*flow
	wfLoad       []float64
	wfCapLeft    []float64
	wfNewRate    []float64
	wfUnfrozen   []int
	wfAliveLinks []int
	wfAliveFlows []int

	// Reallocation requests arriving at the same virtual instant are
	// batched into one sweep: N simultaneous flow activations (e.g. a
	// whole exchange phase releasing at once) cost one water-filling
	// pass instead of N.
	pendingFlows   []*flow
	pendingLinks   []int32
	sweepScheduled bool

	// Incremental-sweep state: the dirty flow set and region-link scratch
	// reused across sweeps, and the full/incremental sweep counters
	// surfaced via SweepStats and obs.
	dirty     []*flow
	regLinks  []int32
	regOut    []float64 // outside (non-dirty) load per region link
	regOld    []float64 // total pre-sweep load per region link
	regOldMax []float64 // highest pre-sweep flow rate per region link
	regNew    []float64 // tentative post-solve load per region link

	fullSweeps int64
	incSweeps  int64

	// fullOnly sends every sweep straight to fullReLevel, bypassing the
	// dirty set. Only package tests set it: the full re-level is the twin
	// the incremental sweep is pinned against bit for bit.
	fullOnly bool
	// maxRounds is the most rounds any incremental sweep has started;
	// package tests read it.
	maxRounds int

	active      int // flows not yet done or aborted
	aborted     int // flows cut by failure events
	ran         bool
	interactive bool

	// sink is the engine's one observation hook (see obs.Sink): flow
	// activations and wire spans, sweep and failure events, and per-link
	// byte windows for time-bucketed utilization. nil means observability
	// off — every emission site is a single predictable branch, preserving
	// the zero-allocation steady state of Submit/release.
	sink obs.Sink
}

// failureEvent is the clock payload of a scheduled link or node failure.
type failureEvent struct {
	links  []int
	node   torus.NodeID
	isNode bool
}

// NewEngine creates an engine over net with parameters p.
func NewEngine(net *Network, p Params) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		net:    net,
		p:      p,
		clock:  sim.NewEngine(),
		slotOf: make([]int32, net.NumLinks()),
	}, nil
}

// Arena block sizes. The first block is small, so a plan of a few flows
// allocates a few flows; each further block doubles, up to the max.
const (
	flowArenaMin = 8
	flowArenaMax = 512
	slotArenaMin = 64
	slotArenaMax = 8192
)

// newFlow hands out the next zeroed flow struct from the arena.
func (e *Engine) newFlow() *flow {
	if e.arenaUsed == len(e.arena) {
		e.arena = make([]flow, min(max(2*len(e.arena), flowArenaMin), flowArenaMax))
		e.arenaUsed = 0
	}
	f := &e.arena[e.arenaUsed]
	e.arenaUsed++
	return f
}

// newSlots hands out a slot list for n links from the slot arena. A new
// block holds, for every flow the last Reserve still covers (this one
// included), as many slots as the flows submitted so far averaged (n for
// the first flow); with nothing reserved it doubles the previous block.
func (e *Engine) newSlots(n int) []int32 {
	i := len(e.slotArena)
	if cap(e.slotArena)-i < n {
		size := min(max(2*cap(e.slotArena), slotArenaMin), slotArenaMax)
		if e.reserved > 0 {
			per := n
			if f := len(e.flows); f > 0 {
				per = (e.slotsUsed + f - 1) / f
			}
			size = per * e.reserved
		}
		e.slotArena = make([]int32, 0, max(size, n))
		i = 0
	}
	e.slotsUsed += n
	e.slotArena = e.slotArena[:i+n]
	return e.slotArena[i : i+n : i+n]
}

// slot returns link's slot, creating it on the link's first use. Once
// the records exist (Run or BeginInteractive has started), a new slot
// gets its record here.
func (e *Engine) slot(link int) int32 {
	if s := e.slotOf[link]; s != 0 {
		return s - 1
	}
	s := int32(len(e.slotLink))
	e.slotOf[link] = s + 1
	e.slotLink = append(e.slotLink, int32(link))
	if e.ran {
		e.rec = append(e.rec, linkSlot{cap: e.net.Capacity(link)})
	}
	return s
}

// buildRecords allocates the record of every slot Submit has assigned, in
// one array of exactly that many records.
func (e *Engine) buildRecords() {
	e.rec = make([]linkSlot, len(e.slotLink))
	for s, l := range e.slotLink {
		e.rec[s].cap = e.net.Capacity(int(l))
	}
}

// Reserve pre-sizes the engine for n further Submit calls so that, with
// routes cached and dependencies resolved, each of them performs no
// allocation. Callers that know their flow count (benchmarks, bulk
// planners) use it to keep Submit off the allocator entirely.
func (e *Engine) Reserve(n int) {
	if free := cap(e.flows) - len(e.flows); free < n {
		grown := make([]*flow, len(e.flows), len(e.flows)+n)
		copy(grown, e.flows)
		e.flows = grown
	}
	if len(e.arena)-e.arenaUsed < n {
		e.arena = make([]flow, n)
		e.arenaUsed = 0
	}
	e.reserved = n
}

// OnEvent dispatches a fired clock event to the right flow transition;
// arg == nil means the batched reallocation sweep. Implementing
// sim.Callback lets the engine schedule every hot-path event without
// allocating a closure.
func (e *Engine) OnEvent(_ *sim.Engine, arg any) {
	switch v := arg.(type) {
	case nil:
		e.sweep()
	case *failureEvent:
		e.applyFailure(v)
	case *flow:
		switch v.next {
		case evActivate:
			e.activate(v)
		case evTransferEnd:
			e.transferEnd(v)
		case evFinish:
			e.finish(v)
		}
	}
}

// SetSink installs an observability sink (see obs.Sink); pass nil to
// disable. Callers must pass a genuinely nil interface, not a typed nil
// pointer, to turn instrumentation off.
func (e *Engine) SetSink(s obs.Sink) { e.sink = s }

// Sink returns the installed observability sink (nil when off).
func (e *Engine) Sink() obs.Sink { return e.sink }

// SweepStats reports how many full (whole-component) and incremental
// (dirty-region) sweeps the engine has performed. The full count is the
// incremental sweep's fallbacks (DESIGN.md §13), so incremental ≫ full
// is the signature of an effective cutoff.
func (e *Engine) SweepStats() (full, incremental int64) {
	return e.fullSweeps, e.incSweeps
}

// Params returns the engine's parameters.
func (e *Engine) Params() Params { return e.p }

// Network returns the engine's network.
func (e *Engine) Network() *Network { return e.net }

// Submit registers a flow and returns its ID. All dependencies must refer
// to already-submitted flows. Submit panics after Run has been called,
// unless the engine is in interactive mode (BeginInteractive), where
// flows are released as soon as their dependencies allow.
func (e *Engine) Submit(spec FlowSpec) FlowID {
	if e.ran && !e.interactive {
		panic("netsim: Submit after Run")
	}
	if spec.Bytes < 0 {
		panic(fmt.Sprintf("netsim: negative flow size %d", spec.Bytes))
	}
	if len(e.flows) == math.MaxInt32 {
		panic("netsim: more than MaxInt32 flows")
	}
	id := FlowID(len(e.flows))
	f := e.newFlow()
	f.id, f.cap = int32(id), e.p.PerFlowBandwidth
	f.src, f.dst, f.bytes, f.extraDelay = spec.Src, spec.Dst, spec.Bytes, spec.ExtraDelay
	var links []int
	switch {
	case spec.Links != nil:
		// Explicit routes are honored even for Src == Dst (e.g. a
		// bridge node writing over its own 11th link). A flow occupies a
		// set of links: a route listing a link twice must still claim it
		// once — a duplicate entry would double-count the flow in
		// waterfill sharing, double-charge the link's byte counter, and
		// leave a stale entry in the link's flow list at removal.
		links = dedupLinks(spec.Links)
		if len(links) == 0 {
			f.cap = e.p.LocalCopyBandwidth
		}
	case spec.Src == spec.Dst:
		f.cap = e.p.LocalCopyBandwidth
	default:
		// Served from the network's route cache: the default route is a
		// pure function of the endpoints, and exchanges resubmit the
		// same pairs every round.
		links = e.net.Route(spec.Src, spec.Dst).Links
	}
	for _, l := range links {
		if l < 0 || l >= e.net.NumLinks() {
			panic(fmt.Sprintf("netsim: flow %d routed over unknown link %d", id, l))
		}
		if e.net.LinkFailed(l) {
			panic(fmt.Sprintf("netsim: flow %d routed over failed link %d (%s) — plan around failures with Network.RouteAvoiding",
				id, l, e.net.LinkName(l)))
		}
	}
	if len(links) > 0 {
		f.slots = e.newSlots(len(links))
		for i, l := range links {
			f.slots[i] = e.slot(l)
		}
	}
	if e.reserved > 0 {
		e.reserved--
	}
	if spec.Links != nil || spec.DependsOn != nil || spec.Label != "" || spec.OnComplete != nil {
		f.cold = e.newCold()
		c := &e.cold[f.cold-1]
		c.links, c.dependsOn, c.label, c.onComplete = spec.Links, spec.DependsOn, spec.Label, spec.OnComplete
	}
	unmet, depAborted := 0, false
	for _, dep := range spec.DependsOn {
		if int(dep) < 0 || int(dep) >= len(e.flows) {
			panic(fmt.Sprintf("netsim: flow %d depends on unknown flow %d", id, dep))
		}
		switch d := e.flows[dep]; d.state {
		case stateDone:
		case stateAborted:
			depAborted = true
		default:
			if d.cold == 0 {
				d.cold = e.newCold()
			}
			dc := &e.cold[d.cold-1]
			dc.dependents = append(dc.dependents, id)
			unmet++
		}
	}
	if unmet > 0 {
		e.cold[f.cold-1].unmetDeps = unmet
	}
	e.flows = append(e.flows, f)
	e.active++
	switch {
	case depAborted:
		// The dependency's abort cascade has run: cut the flow now, as
		// the cascade would have had it been submitted earlier.
		e.abort(f, e.clock.Now())
	case e.interactive && unmet == 0:
		e.release(f)
	}
	return id
}

// newCold appends a zeroed side-table entry and returns its index plus
// one, the form flow.cold keeps.
func (e *Engine) newCold() int32 {
	if cap(e.cold) == 0 {
		e.cold = make([]flowCold, 0, flowArenaMin) // as the flow arena starts
	}
	e.cold = append(e.cold, flowCold{})
	return int32(len(e.cold))
}

// coldOf returns f's side-table entry, or nil when it has none. The
// pointer is valid until the next Submit.
func (e *Engine) coldOf(f *flow) *flowCold {
	if f.cold == 0 {
		return nil
	}
	return &e.cold[f.cold-1]
}

// label returns f's FlowSpec.Label.
func (e *Engine) label(f *flow) string {
	if c := e.coldOf(f); c != nil {
		return c.label
	}
	return ""
}

// dedupLinks returns links with duplicates removed, preserving first-
// occurrence order. The duplicate-free case — every route a planner
// emits — returns the input slice untouched, keeping Submit
// allocation-free; routes are a handful of links, so the quadratic scan
// beats a map.
func dedupLinks(links []int) []int {
	for i := 1; i < len(links); i++ {
		for j := 0; j < i; j++ {
			if links[i] == links[j] {
				out := make([]int, i, len(links)-1)
				copy(out, links[:i])
				for _, l := range links[i+1:] {
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
		}
	}
	return links
}

// Run executes all submitted flows and returns the makespan (time from
// start to the completion of the last flow). It returns an error when the
// dependency graph leaves flows unreleased (a cycle).
func (e *Engine) Run() (sim.Duration, error) {
	if e.ran {
		panic("netsim: Run called twice")
	}
	e.ran = true
	e.buildRecords()
	// A flow holds at most one pending clock event at a time, and one
	// batched sweep can be pending beside them: sized here, at the
	// start of the run, the clock never grows during it.
	e.clock.Reserve(len(e.flows) + 1)
	for _, f := range e.flows {
		if f.cold == 0 || e.cold[f.cold-1].unmetDeps == 0 {
			e.release(f)
		}
	}
	end := e.clock.Run()
	if e.active > 0 {
		return 0, fmt.Errorf("netsim: %d of %d flows never completed (dependency cycle)", e.active, len(e.flows))
	}
	return sim.Duration(end), nil
}

// Result returns a flow's timing after Run.
func (e *Engine) Result(id FlowID) FlowResult {
	f := e.flows[id]
	r := FlowResult{Released: f.released, Activated: f.activated, TransferEnd: f.transferEnd}
	switch f.state {
	case stateDone:
		r.Completed, r.Bytes, r.Done = f.end, f.bytes, true
	case stateAborted:
		r.Aborted, r.AbortTime = true, f.end
	}
	return r
}

// Spec returns the FlowSpec a flow was submitted with.
func (e *Engine) Spec(id FlowID) FlowSpec {
	f := e.flows[id]
	s := FlowSpec{Src: f.src, Dst: f.dst, Bytes: f.bytes, ExtraDelay: f.extraDelay}
	if c := e.coldOf(f); c != nil {
		s.Links, s.DependsOn, s.Label, s.OnComplete = c.links, c.dependsOn, c.label, c.onComplete
	}
	return s
}

// NumFlows returns the number of submitted flows.
func (e *Engine) NumFlows() int { return len(e.flows) }

// LinkBytes returns the cumulative bytes carried by each link during the
// run, indexed by link ID. It is a fresh copy the caller owns; LinkBytesOf
// reads one link without building it. Before Run every link reads zero.
func (e *Engine) LinkBytes() []float64 {
	out := make([]float64, len(e.slotOf))
	for s, l := range e.slotLink[:len(e.rec)] {
		out[l] = e.rec[s].bytes
	}
	return out
}

// LinkBytesOf returns the cumulative bytes link has carried during the run.
func (e *Engine) LinkBytesOf(link int) float64 {
	if s := int(e.slotOf[link]); s != 0 && s <= len(e.rec) {
		return e.rec[s-1].bytes
	}
	return 0
}

// release starts a flow's sender-overhead countdown.
func (e *Engine) release(f *flow) {
	f.state = stateDelayed
	f.released = e.clock.Now()
	delay := e.p.SenderOverhead + f.extraDelay
	f.next = evActivate
	f.endEvent = e.clock.AfterCall(delay, e, f)
	f.hasEnd = true
}

// activate puts a flow on its links and reallocates its component.
func (e *Engine) activate(f *flow) {
	f.state = stateActive
	f.hasEnd = false
	f.activated = e.clock.Now()
	f.remaining = float64(f.bytes)
	f.lastUpdate = e.clock.Now()
	if e.sink != nil {
		e.sink.FlowActivated(e.clock.Now(), int(f.id), e.label(f))
	}
	if f.bytes == 0 {
		e.transferEnd(f)
		return
	}
	for _, s := range f.slots {
		e.rec[s].flows = append(e.rec[s].flows, f)
	}
	e.requestRealloc(f, f.slots)
}

// transferEnd fires when the last byte leaves the wire: the flow frees its
// links immediately and completes after receiver-side costs.
func (e *Engine) transferEnd(f *flow) {
	f.state = stateDraining
	f.hasEnd = false
	f.transferEnd = e.clock.Now()
	// Charge the final segment of progress to the link byte counters
	// before leaving the links.
	for _, s := range f.slots {
		e.rec[s].bytes += f.remaining
	}
	if e.sink != nil {
		now := e.clock.Now()
		if f.remaining > 0 {
			for _, s := range f.slots {
				e.sink.LinkWindow(int(e.slotLink[s]), f.lastUpdate, now, f.remaining)
			}
		}
		e.sink.FlowEnded(now, f.activated, int(f.id), e.label(f), f.bytes, false)
	}
	f.remaining = 0
	for _, s := range f.slots {
		e.removeFromLink(s, f)
	}
	// Freed capacity benefits the rest of the component.
	if len(f.slots) > 0 {
		e.requestRealloc(nil, f.slots)
	}
	tail := e.p.ReceiverOverhead + e.p.HopLatency*sim.Duration(len(f.slots))
	f.next = evFinish
	f.endEvent = e.clock.AfterCall(tail, e, f)
	f.hasEnd = true
}

func (e *Engine) finish(f *flow) {
	f.state = stateDone
	f.hasEnd = false
	f.end = e.clock.Now()
	e.active--
	if f.cold == 0 {
		return
	}
	if fn := e.cold[f.cold-1].onComplete; fn != nil {
		// The callback may Submit (interactive mode), which can move the
		// side table: look f's entry up again after it.
		fn()
	}
	for _, dep := range e.cold[f.cold-1].dependents {
		d := e.flows[dep]
		dc := &e.cold[d.cold-1]
		dc.unmetDeps--
		if dc.unmetDeps == 0 && d.state == statePending {
			e.release(d)
		}
	}
}

// FailLinkAt schedules link to fail at absolute virtual time at. When the
// event fires the link is marked failed on the network (with the route
// cache invalidated for this event), and every flow whose route crosses
// the link and whose transfer has not yet left the wire aborts at that
// instant — as do, transitively, the flows depending on them. Flows
// submitted after the event over the dead link are rejected as usual.
func (e *Engine) FailLinkAt(link int, at sim.Time) {
	if link < 0 || link >= e.net.NumLinks() {
		panic(fmt.Sprintf("netsim: FailLinkAt(%d) outside link table", link))
	}
	e.clock.AtCall(at, e, &failureEvent{links: []int{link}})
}

// FailNodeAt schedules a whole-node failure at absolute virtual time at:
// all torus links into and out of the node plus its registered extra
// links (a bridge's 11th link) fail as one event.
func (e *Engine) FailNodeAt(n torus.NodeID, at sim.Time) {
	if int(n) < 0 || int(n) >= e.net.NumNodes() {
		panic(fmt.Sprintf("netsim: FailNodeAt(%d) outside partition", n))
	}
	e.clock.AtCall(at, e, &failureEvent{links: e.net.NodeLinks(n), node: n, isNode: true})
}

// applyFailure fires a scheduled failure: mark the links dead, then abort
// every flow in flight (or not yet started) whose route crosses one.
func (e *Engine) applyFailure(fe *failureEvent) {
	now := e.clock.Now()
	newly := make(map[int]struct{}, len(fe.links))
	for _, l := range fe.links {
		if !e.net.LinkFailed(l) {
			newly[l] = struct{}{}
		}
	}
	if fe.isNode {
		e.net.FailNode(fe.node)
	} else {
		for l := range newly {
			e.net.FailLink(l)
		}
	}
	if len(newly) > 0 {
		for _, f := range e.flows {
			if f.state == stateDone || f.state == stateAborted || f.state == stateDraining {
				continue
			}
			for _, s := range f.slots {
				if _, dead := newly[int(e.slotLink[s])]; dead {
					e.abort(f, now)
					break
				}
			}
		}
	}
	if e.sink != nil {
		e.sink.FailureApplied(now, int(fe.node), fe.isNode, len(fe.links))
	}
}

// abort cuts a flow at the failure instant: it leaves its links (the
// progress made so far is charged to the link byte counters — those bytes
// did cross the wire), frees its pending timer, and cascades to every
// dependent, which can never release. Draining and done flows are not
// abortable: their last byte already left the wire.
func (e *Engine) abort(f *flow, now sim.Time) {
	switch f.state {
	case stateDone, stateAborted, stateDraining:
		return
	case stateActive:
		if dt := float64(now - f.lastUpdate); dt > 0 && f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, s := range f.slots {
				e.rec[s].bytes += moved
				if e.sink != nil && moved > 0 {
					e.sink.LinkWindow(int(e.slotLink[s]), f.lastUpdate, now, moved)
				}
			}
		}
		if e.sink != nil {
			e.sink.FlowEnded(now, f.activated, int(f.id), e.label(f), f.bytes, true)
		}
		for _, s := range f.slots {
			e.removeFromLink(s, f)
		}
		if len(f.slots) > 0 {
			e.requestRealloc(nil, f.slots)
		}
	}
	if f.hasEnd {
		e.clock.Cancel(f.endEvent)
		f.hasEnd = false
	}
	f.state = stateAborted
	f.end = now
	e.active--
	e.aborted++
	if c := e.coldOf(f); c != nil {
		for _, dep := range c.dependents {
			e.abort(e.flows[dep], now)
		}
	}
}

// Outcomes reports how many flows completed and how many were aborted by
// failure events so far.
func (e *Engine) Outcomes() (done, aborted int) {
	return len(e.flows) - e.active - e.aborted, e.aborted
}

// Interactive reports whether the engine is in interactive mode
// (BeginInteractive was called).
func (e *Engine) Interactive() bool { return e.interactive }

func (e *Engine) removeFromLink(s int32, f *flow) {
	ls := &e.rec[s]
	for i, g := range ls.flows {
		if g == f {
			ls.flows[i] = ls.flows[len(ls.flows)-1]
			ls.flows = ls.flows[:len(ls.flows)-1]
			return
		}
	}
}

// requestRealloc queues a reallocation covering the given seed flow and
// link slots and schedules a single sweep at the current instant. All
// requests made at the same virtual time share one sweep, which runs after
// every other event at this instant (FIFO ordering of same-time events).
func (e *Engine) requestRealloc(f *flow, links []int32) {
	if f != nil {
		e.pendingFlows = append(e.pendingFlows, f)
	}
	e.pendingLinks = append(e.pendingLinks, links...)
	if !e.sweepScheduled {
		e.sweepScheduled = true
		e.clock.AfterCall(0, e, nil)
	}
}

// sweep runs the batched reallocation: the incremental sweep or, when
// the tests' fullOnly twin is set, a full re-level from the same seeds.
func (e *Engine) sweep() {
	e.sweepScheduled = false
	if e.fullOnly {
		e.fullReLevel(e.pendingFlows, e.pendingLinks)
		e.pendingFlows = e.pendingFlows[:0]
		e.pendingLinks = e.pendingLinks[:0]
		return
	}
	e.incrementalSweep()
}

// finishSweep reports a finished sweep to the sink.
func (e *Engine) finishSweep(flows, links int, full bool) {
	if e.sink != nil {
		e.sink.SweepDone(e.clock.Now(), flows, links, full)
	}
}

// FlowRate reports a flow's current rate; active is false when the flow
// is not currently transferring.
func (e *Engine) FlowRate(id FlowID) (rate float64, active bool) {
	f := e.flows[id]
	if f.state != stateActive {
		return 0, false
	}
	return f.rate, true
}

// FlowRouteLinks returns the links a flow occupies (its planned route,
// each link once, in route order).
func (e *Engine) FlowRouteLinks(id FlowID) []int {
	slots := e.flows[id].slots
	if len(slots) == 0 {
		return nil
	}
	out := make([]int, len(slots))
	for i, s := range slots {
		out[i] = int(e.slotLink[s])
	}
	return out
}

// ActiveFlowIDs returns the flows currently transferring.
func (e *Engine) ActiveFlowIDs() []FlowID {
	var out []FlowID
	for id, f := range e.flows {
		if f.state == stateActive {
			out = append(out, FlowID(id))
		}
	}
	return out
}

// FlowRateCap reports a flow's endpoint rate cap.
func (e *Engine) FlowRateCap(id FlowID) float64 { return e.flows[id].cap }

// component gathers, by BFS over shared links, all active flows and link
// slots reachable from the seeds. Because rate allocation is per-link,
// flows in different components cannot affect each other, so reallocation
// is scoped to one component — this keeps large sparse runs fast. The
// returned slices are engine-owned scratch, valid until the next sweep.
func (e *Engine) component(seedFlows []*flow, seedLinks []int32) ([]*flow, []int32) {
	e.epoch++
	ep := e.epoch
	flows := e.compFlows[:0]
	links := e.compLinks[:0]
	flowQueue := e.compQueue[:0]

	addLink := func(l int32) {
		ls := &e.rec[l]
		if ls.visit == ep {
			return
		}
		ls.visit = ep
		links = append(links, l)
		for _, g := range ls.flows {
			if g.visit != ep {
				g.visit = ep
				flows = append(flows, g)
				flowQueue = append(flowQueue, g)
			}
		}
	}
	for _, f := range seedFlows {
		if f.visit != ep && f.state == stateActive {
			f.visit = ep
			flows = append(flows, f)
			flowQueue = append(flowQueue, f)
		}
	}
	for _, l := range seedLinks {
		addLink(l)
	}
	for len(flowQueue) > 0 {
		f := flowQueue[len(flowQueue)-1]
		flowQueue = flowQueue[:len(flowQueue)-1]
		for _, s := range f.slots {
			addLink(s)
		}
	}
	e.compFlows, e.compLinks, e.compQueue = flows, links, flowQueue
	return flows, links
}

// relEps is the relative tolerance the waterfill solver and the
// incremental cutoff rules share for level and saturation comparisons.
const relEps = 1e-9

// chargeProgress charges each flow's progress at its old rate to the
// link byte counters and advances lastUpdate, so a following rate change
// only governs time from this instant on. Flows outside the set are
// untouched: their rates are constant, so their bytes are charged
// exactly when they next enter a sweep, end, or abort.
func (e *Engine) chargeProgress(flows []*flow) {
	now := e.clock.Now()
	for _, f := range flows {
		if dt := float64(now - f.lastUpdate); dt > 0 && f.rate > 0 {
			moved := f.rate * dt
			if moved > f.remaining {
				moved = f.remaining
			}
			f.remaining -= moved
			for _, s := range f.slots {
				e.rec[s].bytes += moved
				if e.sink != nil && moved > 0 {
					e.sink.LinkWindow(int(e.slotLink[s]), f.lastUpdate, now, moved)
				}
			}
		}
		f.lastUpdate = now
	}
}

// solveWaterfill assigns max-min fair rates to flows over link slots by
// progressive filling: the common rate level of unfrozen flows rises
// until a link saturates or a flow hits its rate cap; those flows
// freeze; repeat. extLoad, when non-nil, is per-link load from flows
// outside the set whose rates are pinned — the restricted solve the
// incremental sweep uses; nil means the set covers every flow on the
// links. Results are left in e.wfNewRate (indexed like flows) and the
// link positions in the records' index fields; no other engine state
// changes.
func (e *Engine) solveWaterfill(flows []*flow, links []int32, extLoad []float64) {
	// Local link indices (only the passed links are read back, so no
	// invalidation between sweeps is needed).
	rec := e.rec
	for i, l := range links {
		rec[l].index = int32(i)
	}
	// Engine-owned scratch, reused across sweeps: load starts at the
	// pinned outside load (zero when the set is complete); the others are
	// fully written before being read.
	load := growFloats(&e.wfLoad, len(links), true)        // frozen + pinned load per link
	unfrozen := growInts(&e.wfUnfrozen, len(links))        // unfrozen flow count per link
	capLeft := growFloats(&e.wfCapLeft, len(links), false) // capacity per link
	for i, l := range links {
		capLeft[i] = rec[l].cap
		unfrozen[i] = 0
		if extLoad != nil {
			load[i] = extLoad[i]
		}
	}
	for _, f := range flows {
		for _, l := range f.slots {
			unfrozen[rec[l].index]++
		}
	}
	aliveLinks := e.wfAliveLinks[:0]
	for i := range links {
		if unfrozen[i] > 0 {
			aliveLinks = append(aliveLinks, i)
		}
	}
	newRate := growFloats(&e.wfNewRate, len(flows), false)
	aliveFlows := growInts(&e.wfAliveFlows, len(flows))
	for i := range aliveFlows {
		aliveFlows[i] = i
	}

	for len(aliveFlows) > 0 {
		// Find the level at which the next constraint binds, compacting
		// away links with no unfrozen flows.
		level := math.Inf(1)
		kept := aliveLinks[:0]
		for _, i := range aliveLinks {
			if unfrozen[i] == 0 {
				continue
			}
			kept = append(kept, i)
			if s := (capLeft[i] - load[i]) / float64(unfrozen[i]); s < level {
				level = s
			}
		}
		aliveLinks = kept
		for _, fi := range aliveFlows {
			if c := flows[fi].cap; c < level {
				level = c
			}
		}
		if level < 0 {
			level = 0
		}
		// Freeze every flow bound at this level, compacting the rest.
		eps := level*relEps + 1e-15
		keptFlows := aliveFlows[:0]
		for _, fi := range aliveFlows {
			f := flows[fi]
			bound := f.cap <= level+eps
			if !bound {
				for _, l := range f.slots {
					i := rec[l].index
					if unfrozen[i] > 0 && (capLeft[i]-load[i])/float64(unfrozen[i]) <= level+eps {
						bound = true
						break
					}
				}
			}
			if !bound {
				keptFlows = append(keptFlows, fi)
				continue
			}
			newRate[fi] = level
			for _, l := range f.slots {
				i := rec[l].index
				load[i] += level
				unfrozen[i]--
			}
		}
		if len(keptFlows) == len(aliveFlows) {
			panic("netsim: waterfill made no progress")
		}
		aliveFlows = keptFlows
	}

	// Keep the (possibly regrown) compaction scratch for the next sweep.
	e.wfAliveLinks = aliveLinks[:0]
	e.wfAliveFlows = aliveFlows[:0]
}

// applyRates installs the rates left in e.wfNewRate by solveWaterfill
// and (re)schedules completion events. When a flow's rate is unchanged
// its previously scheduled completion time is still exact, so the event
// is kept.
func (e *Engine) applyRates(flows []*flow) {
	for fi, f := range flows {
		r := e.wfNewRate[fi]
		if r <= 0 {
			panic(fmt.Sprintf("netsim: flow %d allocated zero rate", f.id))
		}
		if f.hasEnd && r == f.rate {
			continue
		}
		f.rate = r
		dt := sim.Duration(f.remaining / f.rate)
		f.next = evTransferEnd
		// Move the pending completion in place; its fresh sequence
		// number orders it exactly as Cancel + AfterCall would.
		if !f.hasEnd || !e.clock.RescheduleAfter(f.endEvent, dt) {
			f.endEvent = e.clock.AfterCall(dt, e, f)
		}
		f.hasEnd = true
	}
}

// incFreeRounds is how many rounds an incremental sweep runs before its
// work budget applies. Each round re-solves the whole dirty set, so from
// then on the sweep keeps going only while its dirty-set sizes, summed
// over its rounds, stay within the engine's active flow count — more
// would cost more than the one full re-level it replaces. Sweeps that
// converge within these rounds never meet the budget (DESIGN.md §13).
const incFreeRounds = 8

// incrementalSweep re-levels only the flows whose max-min rate can have
// changed (DESIGN.md §13). The dirty set seeds with the changed flows
// plus every flow sharing one of the changed links; each round solves a
// restricted waterfill over the dirty set with all outside rates pinned
// as fixed link load, then audits every region link for the three ways
// an outside flow's optimal rate can move:
//
//	(i)   squeeze — the link is saturated after the solve and the flow
//	      sits above the dirty level, so fairness must pull it down;
//	(ii)  freed — a previously saturated link lost load, so the flows
//	      riding its old level can rise;
//	(iii) rose — the link stays saturated but its level went up
//	      (dirty flows redistributed), so old-level riders can rise too.
//
// Flows flagged by an audit join the dirty set and the solve repeats;
// when no rule fires, every outside flow provably keeps its rate, and
// the restricted solution is the global max-min solution. The dirty set
// only grows and every round spends from a finite work budget (see
// incFreeRounds), so the loop terminates; an exhausted budget (or a
// degenerate zero-rate solve, which means the frontier cut a binding
// constraint) falls back to the classic full component sweep.
func (e *Engine) incrementalSweep() {
	// Seed the dirty set.
	e.epoch++
	ep := e.epoch
	dirty := e.dirty[:0]
	for _, f := range e.pendingFlows {
		if f.visit != ep && f.state == stateActive {
			f.visit = ep
			dirty = append(dirty, f)
		}
	}
	for _, l := range e.pendingLinks {
		for _, g := range e.rec[l].flows {
			if g.visit != ep {
				g.visit = ep
				dirty = append(dirty, g)
			}
		}
	}
	e.pendingFlows = e.pendingFlows[:0]
	e.pendingLinks = e.pendingLinks[:0]
	e.dirty = dirty
	if len(dirty) == 0 {
		// All requesting flows ended or aborted at this instant and left
		// no neighbors behind: nothing to re-level.
		e.incSweeps++
		e.finishSweep(0, 0, false)
		return
	}

	links := e.regLinks[:0]
	work := 0
	for round := 0; ; round++ {
		work += len(dirty)
		if round >= incFreeRounds && work > e.active {
			e.dirty, e.regLinks = dirty, links
			e.fullReLevel(dirty, nil)
			return
		}
		e.maxRounds = max(e.maxRounds, round+1)
		// Region = the dirty flows' links. Each round restarts with a
		// fresh epoch so the previous round's link stamps are forgotten;
		// the flow stamps and dirty indices are re-applied.
		e.epoch++
		ep = e.epoch
		for i, f := range dirty {
			f.visit = ep
			f.dIdx = int32(i)
		}
		links = links[:0]
		for _, f := range dirty {
			for _, l := range f.slots {
				if ls := &e.rec[l]; ls.visit != ep {
					ls.visit = ep
					links = append(links, l)
				}
			}
		}
		// Pre-solve region state: total load, outside (pinned) load, and
		// each link's old level (its highest flow rate).
		out := growFloats(&e.regOut, len(links), true)
		old := growFloats(&e.regOld, len(links), true)
		oldMax := growFloats(&e.regOldMax, len(links), true)
		for i, l := range links {
			for _, g := range e.rec[l].flows {
				old[i] += g.rate
				if g.rate > oldMax[i] {
					oldMax[i] = g.rate
				}
				if g.visit != ep {
					out[i] += g.rate
				}
			}
		}
		e.solveWaterfill(dirty, links, out)
		// Tentative post-solve load per region link.
		nw := growFloats(&e.regNew, len(links), false)
		copy(nw, out)
		for fi, f := range dirty {
			r := e.wfNewRate[fi]
			for _, l := range f.slots {
				nw[e.rec[l].index] += r
			}
		}
		// Audit each region link; flows marked dirty mid-audit are
		// excluded from later links' outside checks but have no solved
		// rate yet, so the solved count gates the level lookups.
		solved := len(dirty)
		grew := false
		for i, l := range links {
			ls := &e.rec[l]
			capL := ls.cap
			epsL := capL*relEps + 1e-15
			satAfter := nw[i] >= capL-epsL
			satBefore := old[i] >= capL-epsL
			if !satAfter && !satBefore {
				continue // slack before and after: l binds nobody
			}
			var lvl float64 // highest solved dirty rate on l
			for _, g := range ls.flows {
				if g.visit == ep && int(g.dIdx) < solved {
					if r := e.wfNewRate[g.dIdx]; r > lvl {
						lvl = r
					}
				}
			}
			squeeze := satAfter
			freed := satBefore && nw[i] < old[i]-epsL
			rose := satBefore && satAfter && lvl > oldMax[i]+oldMax[i]*relEps+1e-15
			if !squeeze && !freed && !rose {
				continue
			}
			squeezeCeil := lvl + lvl*relEps + 1e-15
			riderFloor := oldMax[i] - (oldMax[i]*relEps + 1e-15)
			for _, g := range ls.flows {
				if g.visit == ep {
					continue
				}
				if (squeeze && g.rate > squeezeCeil) ||
					((freed || rose) && g.rate >= riderFloor) {
					g.visit = ep
					g.dIdx = int32(len(dirty))
					dirty = append(dirty, g)
					grew = true
				}
			}
		}
		if grew {
			continue
		}
		// Converged: every outside flow provably keeps its rate. A zero
		// rate can only mean the region boundary cut a binding
		// constraint; re-level the whole component instead. Only links
		// slower than the audits' 1e-15 B/s tolerance get here
		// (DESIGN.md §13, TestZeroRateSolveFallsBack).
		for fi := range dirty {
			if e.wfNewRate[fi] <= 0 {
				e.dirty, e.regLinks = dirty, links
				e.fullReLevel(dirty, nil)
				return
			}
		}
		e.chargeProgress(dirty)
		e.applyRates(dirty)
		e.dirty, e.regLinks = dirty, links
		e.incSweeps++
		e.finishSweep(len(dirty), len(links), false)
		return
	}
}

// fullReLevel abandons locality: it re-levels the entire connected
// component reachable from the seed flows and link slots — the
// incremental sweep's fallback.
func (e *Engine) fullReLevel(seedFlows []*flow, seedLinks []int32) {
	flows, links := e.component(seedFlows, seedLinks)
	if len(flows) > 0 {
		e.chargeProgress(flows)
		e.solveWaterfill(flows, links, nil)
		e.applyRates(flows)
	}
	e.fullSweeps++
	e.finishSweep(len(flows), len(links), true)
}

// growFloats resizes an engine scratch buffer to length n, reusing its
// backing array when possible; zero clears the prefix.
func growFloats(buf *[]float64, n int, zero bool) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
		*buf = s
	} else {
		s = s[:n]
		*buf = s
	}
	if zero {
		for i := range s {
			s[i] = 0
		}
	}
	return s
}

// growInts resizes an int scratch buffer to length n, reusing its backing
// array when possible. The caller fully overwrites the contents.
func growInts(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
		*buf = s
	} else {
		s = s[:n]
		*buf = s
	}
	return s
}

// BeginInteractive switches the engine to interactive mode: Run becomes
// unavailable, flows are released on Submit, and the caller advances
// virtual time with StepClock / ScheduleAt. This is the mode the SPMD
// runtime (mpisim.Runtime) drives the engine in.
func (e *Engine) BeginInteractive() {
	if e.ran {
		panic("netsim: BeginInteractive after Run")
	}
	e.ran = true
	e.interactive = true
	e.buildRecords()
}

// StepClock fires the next pending event and reports whether one fired.
// Interactive mode only.
func (e *Engine) StepClock() bool {
	if !e.interactive {
		panic("netsim: StepClock outside interactive mode")
	}
	return e.clock.Step()
}

// Now reports the engine's virtual time.
func (e *Engine) Now() sim.Time { return e.clock.Now() }

// ScheduleAfter schedules fn on the engine clock (interactive mode):
// timers, barrier releases, compute phases.
func (e *Engine) ScheduleAfter(d sim.Duration, fn func()) {
	if !e.interactive {
		panic("netsim: ScheduleAfter outside interactive mode")
	}
	e.clock.After(d, func(*sim.Engine) { fn() })
}

// Throughput converts bytes moved over a duration into bytes/second.
func Throughput(bytes int64, d sim.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / float64(d)
}
