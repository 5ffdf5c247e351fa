package core

import (
	"testing"

	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

// aggRig builds a 2K-node system (16 psets) with 16 ranks per node.
type aggRig struct {
	tor *torus.Torus
	net *netsim.Network
	ios *ionet.System
	job *mpisim.Job
	p   netsim.Params
}

func newAggRig(t *testing.T, shape torus.Shape, ranksPerNode int) *aggRig {
	t.Helper()
	tor := torus.MustNew(shape)
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	ios, err := ionet.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	job, err := mpisim.NewJob(tor, ranksPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return &aggRig{tor: tor, net: net, ios: ios, job: job, p: p}
}

func (r *aggRig) engine(t *testing.T) *netsim.Engine {
	t.Helper()
	// Networks are immutable; each run gets a fresh engine over the
	// same network.
	e, err := netsim.NewEngine(r.net, r.p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewAggPlannerInit(t *testing.T) {
	r := newAggRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	a, err := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	if err != nil {
		t.Fatal(err)
	}
	counts := a.FeasibleCounts()
	if len(counts) == 0 || counts[0] != 1 {
		t.Fatalf("feasible counts %v", counts)
	}
	for _, c := range counts {
		if c > 128 {
			t.Fatalf("count %d exceeds pset size", c)
		}
	}
}

func TestAggConfigValidation(t *testing.T) {
	r := newAggRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	if _, err := NewAggPlanner(r.ios, r.job, r.p, AggConfig{MinBytesPerAggregator: 0, MaxAggregatorsPerPset: 1}); err == nil {
		t.Error("zero S accepted")
	}
	if _, err := NewAggPlanner(r.ios, r.job, r.p, AggConfig{MinBytesPerAggregator: 1, MaxAggregatorsPerPset: 0}); err == nil {
		t.Error("zero max aggregators accepted")
	}
}

func TestAggregatorCountScalesWithData(t *testing.T) {
	r := newAggRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	a, err := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	if err != nil {
		t.Fatal(err)
	}
	small, _ := a.AggregatorsFor(1 << 20)
	big, _ := a.AggregatorsFor(1 << 40)
	if small != 1 {
		t.Fatalf("1MB burst selected %d aggregators per pset, want 1", small)
	}
	if big <= small {
		t.Fatalf("1TB burst selected %d per pset, want more than %d", big, small)
	}
}

func TestAggregatorsUniformAcrossPsetsAndBridges(t *testing.T) {
	r := newAggRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	a, _ := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	perPset, aggs := a.AggregatorsFor(1 << 36) // large burst
	if perPset < 2 {
		t.Fatalf("perPset = %d, want >= 2 for a large burst", perPset)
	}
	countPerPset := map[int]int{}
	bridgeUse := map[int]map[int]int{}
	for _, ag := range aggs {
		countPerPset[ag.Pset]++
		if bridgeUse[ag.Pset] == nil {
			bridgeUse[ag.Pset] = map[int]int{}
		}
		bridgeUse[ag.Pset][ag.Bridge]++
		// The aggregator must live in its pset.
		if r.ios.PsetOf(ag.Node).Index != ag.Pset {
			t.Fatalf("aggregator node %d not in pset %d", ag.Node, ag.Pset)
		}
		// Lead rank lives on the aggregator node.
		if r.job.NodeOf(ag.LeadRank) != ag.Node {
			t.Fatalf("lead rank %d not on node %d", ag.LeadRank, ag.Node)
		}
	}
	for pi := 0; pi < r.ios.NumPsets(); pi++ {
		if countPerPset[pi] != perPset {
			t.Fatalf("pset %d has %d aggregators, want %d", pi, countPerPset[pi], perPset)
		}
		// Both bridges used when perPset >= 2.
		if len(bridgeUse[pi]) < 2 {
			t.Fatalf("pset %d uses only %d bridges", pi, len(bridgeUse[pi]))
		}
	}
}

func TestAggPlanDeliversAllBytes(t *testing.T) {
	r := newAggRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	a, _ := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	e := r.engine(t)
	data := workload.Uniform(r.job.NumRanks(), 1<<20, 3)
	plan, err := a.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalBytes != workload.Total(data) {
		t.Fatalf("plan total %d, want %d", plan.TotalBytes, workload.Total(data))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var arrived int64
	for _, id := range plan.Final {
		arrived += e.Result(id).Bytes
	}
	if arrived != plan.TotalBytes {
		t.Fatalf("arrived %d, want %d", arrived, plan.TotalBytes)
	}
	if plan.Metadata <= 0 {
		t.Fatal("metadata cost should be positive")
	}
}

// TestAggPlanDropsAggregatorOnFailedNode pins the degraded-pset guard:
// an aggregator selected on a failed node that is not a bridge is
// dropped, and the burst still lands every byte through the surviving
// aggregators with no flow aborted.
func TestAggPlanDropsAggregatorOnFailedNode(t *testing.T) {
	r := newAggRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	a, _ := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	data := workload.Uniform(r.job.NumRanks(), 1<<20, 3)
	_, aggs := a.AggregatorsFor(workload.Total(data))
	bridges := r.ios.Pset(0).Bridges
	dead := torus.NodeID(-1)
	for _, ag := range aggs {
		if ag.Node != bridges[0] && ag.Node != bridges[1] {
			dead = ag.Node
			break
		}
	}
	if dead < 0 {
		t.Fatal("every selected aggregator sits on a bridge")
	}
	r.net.FailNode(dead)
	// The dead node's memory is gone: its ranks have nothing to write.
	for rk := 0; rk < r.job.NumRanks(); rk++ {
		if r.job.NodeOf(rk) == dead {
			data[rk] = 0
		}
	}
	_, aggs = a.AggregatorsFor(workload.Total(data))
	e := r.engine(t)
	plan, err := a.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumAggregators != len(aggs)-1 {
		t.Fatalf("%d aggregators planned, want the %d selected minus the dead one", plan.NumAggregators, len(aggs))
	}
	for _, ag := range plan.Aggregators {
		if ag.Node == dead {
			t.Fatalf("aggregator on failed node %d kept", dead)
		}
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var arrived int64
	for _, id := range plan.Final {
		arrived += e.Result(id).Bytes
	}
	if arrived != plan.TotalBytes {
		t.Fatalf("degraded plan delivered %d of %d", arrived, plan.TotalBytes)
	}
	if done, aborted := e.Outcomes(); aborted != 0 {
		t.Fatalf("%d flows aborted (%d done)", aborted, done)
	}
}

func TestAggPlanEmptyBurst(t *testing.T) {
	r := newAggRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	a, _ := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	e := r.engine(t)
	plan, err := a.Plan(e, make([]int64, r.job.NumRanks()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Final) != 0 || plan.TotalBytes != 0 {
		t.Fatalf("empty burst produced flows")
	}
}

func TestAggPlanRejectsWrongLengthAndNegative(t *testing.T) {
	r := newAggRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	a, _ := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	e := r.engine(t)
	if _, err := a.Plan(e, make([]int64, 5)); err == nil {
		t.Fatal("wrong-length data accepted")
	}
	bad := make([]int64, r.job.NumRanks())
	bad[3] = -1
	if _, err := a.Plan(e, bad); err == nil {
		t.Fatal("negative data accepted")
	}
}

// The heart of Fig. 10: ION load balance. With a concentrated burst
// (only one pset's ranks hold data), the topology-aware aggregation must
// still spread bytes evenly over all ION uplinks.
func TestAggBalancesIONLoadForConcentratedBurst(t *testing.T) {
	r := newAggRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	e := r.engine(t)
	a, err := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Data only on the first 128 nodes (= roughly one pset's worth).
	data := make([]int64, r.job.NumRanks())
	for rk := 0; rk < 128*16; rk++ {
		data[rk] = 4 << 20
	}
	plan, err := a.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Collect bytes per ION uplink.
	lb := e.LinkBytes()
	var loads []float64
	for pi := 0; pi < r.ios.NumPsets(); pi++ {
		for bi := 0; bi < 2; bi++ {
			loads = append(loads, lb[r.ios.Pset(pi).Uplink(bi)])
		}
	}
	min, max := loads[0], loads[0]
	var sum float64
	for _, l := range loads {
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
		sum += l
	}
	if sum < float64(plan.TotalBytes)*0.99 {
		t.Fatalf("uplinks carried %g of %d bytes", sum, plan.TotalBytes)
	}
	if min < 0.5*max {
		t.Fatalf("ION uplink imbalance: min %g, max %g", min, max)
	}
}

// eagerAggregators is the Init the planner used to run for every feasible
// count: build each pset's blocks, take their origin corners and each
// corner's first rank, interleaved across psets.
func eagerAggregators(t *testing.T, r *aggRig, count int) []Aggregator {
	t.Helper()
	bridges := ionet.BridgesPerPset
	perPset := make([][]torus.NodeID, r.ios.NumPsets())
	for pi := range perPset {
		blocks, err := r.ios.Pset(pi).Box.Blocks(count)
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range blocks {
			perPset[pi] = append(perPset[pi], r.tor.ID(blk.Corner()))
		}
	}
	var aggs []Aggregator
	for bi := 0; bi < count; bi++ {
		for pi := range perPset {
			node := perPset[pi][bi]
			aggs = append(aggs, Aggregator{Node: node, LeadRank: r.job.RanksOn(node)[0], Pset: pi, Bridge: bi % bridges})
		}
	}
	return aggs
}

// AggregatorsFor builds only the selected count's candidates; for every
// feasible count it must return what the eager Init selected.
func TestAggregatorsForMatchesEagerInit(t *testing.T) {
	for _, shape := range []torus.Shape{{2, 2, 4, 4, 2}, {4, 4, 4, 16, 2}} {
		r := newAggRig(t, shape, 16)
		a, err := NewAggPlanner(r.ios, r.job, r.p, DefaultAggConfig())
		if err != nil {
			t.Fatal(err)
		}
		S, nio := a.cfg.MinBytesPerAggregator, int64(r.ios.NumIONodes())
		for _, count := range a.FeasibleCounts() {
			perPset, got := a.AggregatorsFor(int64(count) * S * nio)
			if perPset != count {
				t.Fatalf("%v: burst sized for %d aggregators per pset selected %d", shape, count, perPset)
			}
			want := eagerAggregators(t, r, count)
			if len(got) != len(want) {
				t.Fatalf("%v count %d: %d aggregators, want %d", shape, count, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%v count %d: aggregator %d = %+v, want %+v", shape, count, i, got[i], want[i])
				}
			}
		}
	}
}
