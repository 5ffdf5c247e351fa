package core

import (
	"fmt"

	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

// AggConfig tunes Algorithm 2.
type AggConfig struct {
	// MinBytesPerAggregator is S, the smallest amount of data worth
	// dedicating one aggregator to; the aggregator count per I/O node is
	// scaled as ceil(T / S / n_io).
	MinBytesPerAggregator int64

	// MaxAggregatorsPerPset caps the per-pset aggregator count (the
	// paper's candidate list P = {1, 2, 4, ..., 128}).
	MaxAggregatorsPerPset int
}

// DefaultAggConfig returns the operating point used in the experiments.
func DefaultAggConfig() AggConfig {
	return AggConfig{
		MinBytesPerAggregator: 64 << 20,
		MaxAggregatorsPerPset: 128,
	}
}

// Aggregator is one selected intermediate node for I/O aggregation.
type Aggregator struct {
	Node torus.NodeID
	// LeadRank is the world rank elected for the block (rank 0 of the
	// block's subcommunicator).
	LeadRank int
	// Pset is the pset the aggregator belongs to; its data leaves
	// through that pset's I/O node.
	Pset int
	// Bridge is the index of the pset bridge node this aggregator
	// writes through; aggregators alternate bridges so both 11th links
	// of a pset carry load.
	Bridge int
}

// AggPlanner implements Algorithm 2. The Init part — querying pset
// geometry and finding the per-pset aggregator counts every pset splits
// into exactly — runs once in NewAggPlanner; each write burst then only
// needs the total data size (one allreduce) to select a count, and
// AggregatorsFor builds that count's candidate set alone. A planner is
// read-only after Init, so concurrent bursts may share it.
type AggPlanner struct {
	ios  *ionet.System
	job  *mpisim.Job
	cfg  AggConfig
	coll *mpisim.CollectiveModel

	// feasible lists the per-pset aggregator counts with an exact 5-D
	// block decomposition, ascending.
	feasible []int
}

// NewAggPlanner runs the Init phase of Algorithm 2.
func NewAggPlanner(ios *ionet.System, job *mpisim.Job, params netsim.Params, cfg AggConfig) (*AggPlanner, error) {
	if cfg.MinBytesPerAggregator < 1 {
		return nil, fmt.Errorf("core: MinBytesPerAggregator must be positive")
	}
	if cfg.MaxAggregatorsPerPset < 1 {
		return nil, fmt.Errorf("core: MaxAggregatorsPerPset must be positive")
	}
	a := &AggPlanner{
		ios:  ios,
		job:  job,
		cfg:  cfg,
		coll: mpisim.NewCollectiveModel(job, params),
	}
	max := cfg.MaxAggregatorsPerPset
	if ps := ios.Pset(0).Box.Size(); max > ps {
		max = ps
	}
	a.feasible = ios.Pset(0).Box.FeasibleBlockCounts(max)
	if len(a.feasible) == 0 {
		return nil, fmt.Errorf("core: pset %v admits no block decomposition", ios.Pset(0).Box)
	}
	// Every pset must split into every feasible count; only a failure
	// builds the blocks, for its error.
	for _, count := range a.feasible {
		for pi := 0; pi < ios.NumPsets(); pi++ {
			if box := ios.Pset(pi).Box; !torus.Splittable(box.Extent, count) {
				_, err := box.Blocks(count)
				return nil, fmt.Errorf("core: pset %d: %w", pi, err)
			}
		}
	}
	return a, nil
}

// FeasibleCounts returns the per-pset aggregator counts the planner can
// realize, ascending.
func (a *AggPlanner) FeasibleCounts() []int {
	return append([]int(nil), a.feasible...)
}

// AggregatorsFor returns the global aggregator list for a given total
// burst size: per-pset count ceil(T/S)/n_io rounded up to the next
// feasible count, every pset contributing that many block-lead nodes,
// alternating across the pset's bridge nodes.
func (a *AggPlanner) AggregatorsFor(totalBytes int64) (perPset int, aggs []Aggregator) {
	nio := int64(a.ios.NumPsets())
	S := a.cfg.MinBytesPerAggregator
	need := (totalBytes + S*nio - 1) / (S * nio) // ceil(T / S / n_io)
	if need < 1 {
		need = 1
	}
	perPset = a.feasible[len(a.feasible)-1]
	for _, c := range a.feasible {
		if int64(c) >= need {
			perPset = c
			break
		}
	}
	npsets := a.ios.NumPsets()
	leads := make([][]torus.NodeID, npsets)
	for pi := range leads {
		nodes, err := a.ios.Pset(pi).Box.BlockLeads(a.job.Torus(), perPset)
		if err != nil {
			panic(fmt.Sprintf("core: pset %d lost its feasible split into %d: %v", pi, perPset, err))
		}
		leads[pi] = nodes
	}
	// Interleave across psets so that ANY prefix of the list — which is
	// all a burst with few senders uses under round-robin assignment —
	// already spreads evenly over the I/O nodes and their bridges.
	aggs = make([]Aggregator, 0, perPset*npsets)
	for bi := 0; bi < perPset; bi++ {
		for pi := 0; pi < npsets; pi++ {
			node := leads[pi][bi]
			aggs = append(aggs, Aggregator{
				Node:     node,
				LeadRank: a.job.FirstRankOn(node),
				Pset:     pi,
				Bridge:   bi % ionet.BridgesPerPset,
			})
		}
	}
	return perPset, aggs
}

// AggPlan records what Plan decided and submitted.
type AggPlan struct {
	// TotalBytes is the burst size T.
	TotalBytes int64
	// AggPerPset is the selected per-pset aggregator count.
	AggPerPset int
	// NumAggregators is the global aggregator count.
	NumAggregators int
	// Senders counts the nodes that had data to write.
	Senders int
	// Metadata is the priced cost of the burst's collectives (allreduce
	// of T, exscan for the round-robin index, bcast of the selection);
	// report it on top of the flow makespan.
	Metadata sim.Duration
	// Aggregators is the selection the burst was assigned to, after
	// aggregators on failed nodes were dropped.
	Aggregators []Aggregator
	// Final holds the flows that land data on the I/O nodes.
	Final []netsim.FlowID
}

// Plan runs the Redistribute-data part of Algorithm 2 for one write
// burst destined for the paper's /dev/null sink (the path ends at the
// I/O node). data[r] is the number of bytes world rank r must write.
func (a *AggPlanner) Plan(e *netsim.Engine, data []int64) (AggPlan, error) {
	return a.PlanWithSink(e, data, ionet.DevNull{S: a.ios, ForwardDelay: e.Params().ProxyForwardOverhead})
}

// PlanWithSink runs the Redistribute-data part of Algorithm 2 with an
// explicit write sink (e.g. the GPFS storage tier). Ranks on the same
// node are coalesced into one message (the node is the network
// endpoint). Data-holding nodes are assigned to aggregators round-robin —
// realized on the machine by an exscan over the has-data indicator, which
// is priced into Metadata — so every I/O node receives an approximately
// equal share of the burst regardless of where the data sits.
func (a *AggPlanner) PlanWithSink(e *netsim.Engine, data []int64, sink ionet.Sink) (AggPlan, error) {
	if len(data) != a.job.NumRanks() {
		return AggPlan{}, fmt.Errorf("core: data for %d ranks, job has %d", len(data), a.job.NumRanks())
	}
	perNode, total, senders, err := coalescePerNode(a.job, data)
	if err != nil {
		return AggPlan{}, err
	}
	plan := AggPlan{TotalBytes: total, Senders: senders}
	world := a.job.NumRanks()
	plan.Metadata = a.coll.AllreduceTime(world, 8) + // total size
		a.coll.AllreduceTime(world, 8) + // exscan of has-data indicator
		a.coll.BcastTime(world, 16) // selected per-pset count
	if total == 0 {
		return plan, nil
	}
	perPset, aggs := a.AggregatorsFor(total)
	// Degraded-pset operation: drop aggregators sitting on failed nodes
	// (their flows could never land) and route gather legs around failed
	// links below.
	net := e.Network()
	live := aggs[:0]
	for _, ag := range aggs {
		if !net.NodeFailed(ag.Node) {
			live = append(live, ag)
		}
	}
	if len(live) == 0 {
		return plan, fmt.Errorf("core: every selected aggregator is on a failed node")
	}
	aggs = live
	plan.AggPerPset = perPset
	plan.NumAggregators = len(aggs)
	plan.Aggregators = aggs

	// Rank-order file offsets per node.
	offset := make([]int64, len(perNode))
	var running int64
	for n, b := range perNode {
		offset[n] = running
		running += b
	}

	next := 0
	for node, bytes := range perNode {
		if bytes == 0 {
			continue
		}
		agg := aggs[next%len(aggs)]
		next++
		src := torus.NodeID(node)
		gather := netsim.FlowSpec{Src: src, Dst: agg.Node, Bytes: bytes,
			Label: fmt.Sprintf("n%d->agg%d", node, agg.Node)}
		if src != agg.Node {
			// Route the gather leg around failed links. With no minimal
			// route left the plan fails: the engine's fail-stop check
			// would reject the default route at Submit.
			r, rerr := net.RouteAvoiding(src, agg.Node)
			if rerr != nil {
				return plan, fmt.Errorf("core: gather leg of node %d: %w", node, rerr)
			}
			gather.Links = r.Links
		}
		l1 := e.Submit(gather)
		fabric, conts := sink.WriteFlows(agg.Node, agg.Pset, agg.Bridge, offset[node], bytes)
		if anyFailed(net.LinkFailed, fabric.Links) {
			return plan, fmt.Errorf("core: write leg of aggregator %d to its I/O node is cut by failures", agg.Node)
		}
		fabric.DependsOn = []netsim.FlowID{l1}
		fabric.Label = fmt.Sprintf("agg%d->ion%d", agg.Node, agg.Pset)
		fid := e.Submit(fabric)
		if len(conts) == 0 {
			plan.Final = append(plan.Final, fid)
			continue
		}
		for ci, cont := range conts {
			cont.DependsOn = []netsim.FlowID{fid}
			cont.Label = fmt.Sprintf("ion%d->sink/%d", agg.Pset, ci)
			plan.Final = append(plan.Final, e.Submit(cont))
		}
	}
	return plan, nil
}

// coalescePerNode sums per-rank data into per-node messages.
func coalescePerNode(job *mpisim.Job, data []int64) (perNode []int64, total int64, senders int, err error) {
	perNode = make([]int64, job.Torus().Size())
	for r, d := range data {
		if d < 0 {
			return nil, 0, 0, fmt.Errorf("core: rank %d has negative data %d", r, d)
		}
		perNode[job.NodeOf(r)] += d
		total += d
	}
	for _, b := range perNode {
		if b > 0 {
			senders++
		}
	}
	return perNode, total, senders, nil
}
