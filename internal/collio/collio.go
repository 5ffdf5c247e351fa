// Package collio models the default MPI collective I/O path on the Blue
// Gene/Q — the baseline the paper compares its topology-aware aggregation
// against. It is a two-phase (ROMIO-style) collective write with the
// BG/Q-specific aggregator placement the paper criticizes:
//
//   - A fixed number of aggregators per pset (cb_nodes), chosen as the
//     lowest-ranked nodes of the pset. In rank (row-major) order those
//     nodes cluster in one corner of the pset, so they are neither
//     uniformly distributed over the torus (exchange traffic funnels into
//     a small region) nor balanced across the pset's bridge nodes (corner
//     nodes share a default bridge, so typically only one of the two 11th
//     links carries the write traffic).
//
//   - File domains are contiguous, equal byte ranges of the file,
//     assigned to aggregators in order; each rank ships every byte range
//     to the owning aggregator, regardless of topology.
//
//   - The two phases proceed in rounds of cb_buffer_size bytes per
//     aggregator. Within a round the aggregator's write begins only after
//     the whole exchange for that round arrives, rounds are separated by
//     a collective synchronization, and the buffer is reused — so
//     exchange and write time add up instead of overlapping.
//
// The planner emits the same kind of netsim flow DAG as package core, so
// the two mechanisms are compared on identical ground.
package collio

import (
	"fmt"
	"sort"

	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// Config mirrors the BG/Q MPI-IO collective-buffering knobs.
type Config struct {
	// AggregatorsPerPset is cb_nodes per pset; BG/Q default 8.
	AggregatorsPerPset int
	// BufferBytes is cb_buffer_size, the per-aggregator round size;
	// default 16 MB.
	BufferBytes int64
	// RoundSync inserts a collective synchronization between rounds
	// (the default two-phase behaviour). Disabling it is an ablation.
	RoundSync bool
}

// DefaultConfig returns the BG/Q defaults.
func DefaultConfig() Config {
	return Config{AggregatorsPerPset: 8, BufferBytes: 16 << 20, RoundSync: true}
}

// Planner plans default collective writes.
type Planner struct {
	ios  *ionet.System
	job  *mpisim.Job
	cfg  Config
	coll *mpisim.CollectiveModel

	aggNodes []torus.NodeID // fixed for the job, like cb_nodes
}

// NewPlanner selects the job's fixed aggregator set.
func NewPlanner(ios *ionet.System, job *mpisim.Job, params netsim.Params, cfg Config) (*Planner, error) {
	if cfg.AggregatorsPerPset < 1 {
		return nil, fmt.Errorf("collio: AggregatorsPerPset must be positive")
	}
	if cfg.AggregatorsPerPset > ios.Pset(0).Box.Size() {
		return nil, fmt.Errorf("collio: %d aggregators exceed pset size %d",
			cfg.AggregatorsPerPset, ios.Pset(0).Box.Size())
	}
	if cfg.BufferBytes < 1 {
		return nil, fmt.Errorf("collio: BufferBytes must be positive")
	}
	p := &Planner{ios: ios, job: job, cfg: cfg, coll: mpisim.NewCollectiveModel(job, params)}
	tor := job.Torus()
	// cb_nodes: the lowest-ranked nodes of each pset. Node IDs are
	// row-major, so "lowest-ranked in the pset" is the box node order.
	for pi := 0; pi < ios.NumPsets(); pi++ {
		nodes := ios.Pset(pi).Box.Nodes(tor)
		sort.Slice(nodes, func(a, b int) bool { return nodes[a] < nodes[b] })
		p.aggNodes = append(p.aggNodes, nodes[:cfg.AggregatorsPerPset]...)
	}
	return p, nil
}

// Aggregators returns the fixed aggregator nodes, for inspection.
func (p *Planner) Aggregators() []torus.NodeID {
	return append([]torus.NodeID(nil), p.aggNodes...)
}

// Plan records what a collective write submitted.
type Plan struct {
	TotalBytes     int64
	NumAggregators int
	Rounds         int
	// Metadata prices the collective open and offset exchange.
	Metadata sim.Duration
	// Final holds the flows that land data on the I/O nodes.
	Final []netsim.FlowID
}

type pendingExchange struct {
	src   torus.NodeID
	bytes int64
}

// Plan submits the flow DAG for one collective write to the paper's
// /dev/null sink (the path ends at the I/O node).
func (p *Planner) Plan(e *netsim.Engine, data []int64) (Plan, error) {
	return p.PlanWithSink(e, data, ionet.DevNull{S: p.ios, ForwardDelay: e.Params().ProxyForwardOverhead})
}

// PlanWithSink submits the flow DAG for one collective write of data[r]
// bytes per world rank, laid out in the file in rank order, ending at an
// explicit sink. Per-rank buffers on one node are coalesced into
// per-node messages (the node is the network endpoint).
func (p *Planner) PlanWithSink(e *netsim.Engine, data []int64, sink ionet.Sink) (Plan, error) {
	if len(data) != p.job.NumRanks() {
		return Plan{}, fmt.Errorf("collio: data for %d ranks, job has %d", len(data), p.job.NumRanks())
	}
	// Per-node contiguous file ranges from the rank-order layout.
	nNodes := p.job.Torus().Size()
	nodeStart := make([]int64, nNodes)
	nodeBytes := make([]int64, nNodes)
	var total int64
	for r, d := range data {
		if d < 0 {
			return Plan{}, fmt.Errorf("collio: rank %d has negative data", r)
		}
		n := p.job.NodeOf(r)
		if nodeBytes[n] == 0 {
			nodeStart[n] = total
		}
		nodeBytes[n] += d
		total += d
	}
	plan := Plan{TotalBytes: total, NumAggregators: len(p.aggNodes)}
	world := p.job.NumRanks()
	plan.Metadata = p.coll.AllreduceTime(world, 8) + p.coll.AllgatherTime(world, 16)
	if total == 0 {
		return plan, nil
	}

	// Equal contiguous file domains; rounds of BufferBytes inside each.
	nAgg := int64(len(p.aggNodes))
	domain := (total + nAgg - 1) / nAgg
	rounds := int((domain + p.cfg.BufferBytes - 1) / p.cfg.BufferBytes)
	plan.Rounds = rounds

	// exchanges[a][k] lists the per-node shipments into aggregator a's
	// round-k window.
	exchanges := make([][][]pendingExchange, nAgg)
	for a := range exchanges {
		exchanges[a] = make([][]pendingExchange, rounds)
	}
	for n := 0; n < nNodes; n++ {
		if nodeBytes[n] == 0 {
			continue
		}
		lo, hi := nodeStart[n], nodeStart[n]+nodeBytes[n]
		for a := lo / domain; a < nAgg && a*domain < hi; a++ {
			dLo := a * domain
			dHi := minI64(dLo+domain, total)
			oLo, oHi := maxI64(lo, dLo), minI64(hi, dHi)
			if oLo >= oHi {
				continue
			}
			for k := (oLo - dLo) / p.cfg.BufferBytes; ; k++ {
				wLo := dLo + k*p.cfg.BufferBytes
				if wLo >= oHi {
					break
				}
				wHi := minI64(wLo+p.cfg.BufferBytes, dHi)
				sLo, sHi := maxI64(oLo, wLo), minI64(oHi, wHi)
				if sLo < sHi {
					exchanges[a][k] = append(exchanges[a][k],
						pendingExchange{src: torus.NodeID(n), bytes: sHi - sLo})
				}
			}
		}
	}

	// collio has no fault-aware routing: a flow whose route crosses a
	// failed link fails the plan here, before the engine's fail-stop
	// check at Submit would panic on it.
	net := e.Network()

	// Submit round by round. Within a round, each aggregator's write
	// depends on all of its exchanges; the next round starts after the
	// collective sync (a zero-byte barrier flow) or, without RoundSync,
	// after the same aggregator's previous write (buffer reuse).
	barrierCost := p.coll.BarrierTime(world)
	prevWrite := make([]netsim.FlowID, nAgg)
	for a := range prevWrite {
		prevWrite[a] = -1
	}
	var prevBarrier netsim.FlowID = -1
	for k := 0; k < rounds; k++ {
		var roundWrites []netsim.FlowID
		for a := int64(0); a < nAgg; a++ {
			pend := exchanges[a][k]
			if len(pend) == 0 {
				continue
			}
			aggNode := p.aggNodes[a]
			var deps []netsim.FlowID
			if p.cfg.RoundSync && prevBarrier >= 0 {
				deps = []netsim.FlowID{prevBarrier}
			} else if !p.cfg.RoundSync && prevWrite[a] >= 0 {
				deps = []netsim.FlowID{prevWrite[a]}
			}
			var exIDs []netsim.FlowID
			var wbytes int64
			for _, pe := range pend {
				if pe.src != aggNode && cut(net, net.Route(pe.src, aggNode).Links) {
					return plan, fmt.Errorf("collio: exchange from node %d to aggregator %d is cut by failures", pe.src, aggNode)
				}
				id := e.Submit(netsim.FlowSpec{
					Src: pe.src, Dst: aggNode, Bytes: pe.bytes,
					DependsOn: deps,
					Label:     fmt.Sprintf("ex/a%d/r%d/n%d", a, k, pe.src),
				})
				exIDs = append(exIDs, id)
				wbytes += pe.bytes
			}
			// The write leaves through the aggregator's default path at
			// the window's file offset.
			pi, bi := p.ios.DefaultPath(aggNode)
			fabric, conts := sink.WriteFlows(aggNode, pi, bi, a*domain+int64(k)*p.cfg.BufferBytes, wbytes)
			if cut(net, fabric.Links) {
				return plan, fmt.Errorf("collio: write leg of aggregator %d to its I/O node is cut by failures", aggNode)
			}
			fabric.DependsOn = exIDs
			fabric.Label = fmt.Sprintf("wr/a%d/r%d", a, k)
			w := e.Submit(fabric)
			last := w
			for ci, cont := range conts {
				cont.DependsOn = []netsim.FlowID{w}
				cont.Label = fmt.Sprintf("wr/a%d/r%d/sink%d", a, k, ci)
				last = e.Submit(cont)
				plan.Final = append(plan.Final, last)
			}
			if len(conts) == 0 {
				plan.Final = append(plan.Final, w)
			}
			prevWrite[a] = w
			roundWrites = append(roundWrites, w)
		}
		if p.cfg.RoundSync && len(roundWrites) > 0 && k < rounds-1 {
			prevBarrier = e.Submit(netsim.FlowSpec{
				Src: 0, Dst: 0, Bytes: 0,
				DependsOn:  roundWrites,
				ExtraDelay: barrierCost,
				Label:      fmt.Sprintf("barrier/r%d", k),
			})
		}
	}
	return plan, nil
}

// cut reports whether a failed link lies on a route. It reads the same
// links the engine's fail-stop check reads when the flow is submitted.
func cut(net *netsim.Network, links []int) bool {
	for _, l := range links {
		if net.LinkFailed(l) {
			return true
		}
	}
	return false
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
