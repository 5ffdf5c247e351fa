package collio

import (
	"strings"
	"testing"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
	"bgqflow/internal/workload"
)

type rig struct {
	tor *torus.Torus
	net *netsim.Network
	ios *ionet.System
	job *mpisim.Job
	p   netsim.Params
}

func newRig(t *testing.T, shape torus.Shape, ranksPerNode int) *rig {
	t.Helper()
	tor := torus.MustNew(shape)
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	ios, err := ionet.Build(net, ionet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	job, err := mpisim.NewJob(tor, ranksPerNode)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{tor: tor, net: net, ios: ios, job: job, p: p}
}

func (r *rig) engine(t *testing.T) *netsim.Engine {
	t.Helper()
	e, err := netsim.NewEngine(r.net, r.p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewPlannerValidation(t *testing.T) {
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	if _, err := NewPlanner(r.ios, r.job, r.p, Config{AggregatorsPerPset: 0, BufferBytes: 1}); err == nil {
		t.Error("zero aggregators accepted")
	}
	if _, err := NewPlanner(r.ios, r.job, r.p, Config{AggregatorsPerPset: 8, BufferBytes: 0}); err == nil {
		t.Error("zero buffer accepted")
	}
	if _, err := NewPlanner(r.ios, r.job, r.p, Config{AggregatorsPerPset: 1000, BufferBytes: 1}); err == nil {
		t.Error("oversized aggregator count accepted")
	}
}

func TestAggregatorsAreClusteredLowNodes(t *testing.T) {
	r := newRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	pl, err := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	aggs := pl.Aggregators()
	if len(aggs) != 8*r.ios.NumPsets() {
		t.Fatalf("%d aggregators, want %d", len(aggs), 8*r.ios.NumPsets())
	}
	// Per pset they are the lowest node IDs, i.e. clustered in one
	// corner — the inefficiency the paper calls out.
	for pi := 0; pi < r.ios.NumPsets(); pi++ {
		nodes := r.ios.Pset(pi).Box.Nodes(r.tor)
		min := nodes[0]
		for _, n := range nodes {
			if n < min {
				min = n
			}
		}
		found := false
		for _, a := range aggs {
			if a == min {
				found = true
			}
		}
		if !found {
			t.Fatalf("pset %d: lowest node %d not an aggregator", pi, min)
		}
	}
}

func TestPlanDeliversAllBytes(t *testing.T) {
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	pl, _ := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	e := r.engine(t)
	data := workload.Uniform(r.job.NumRanks(), 1<<20, 5)
	plan, err := pl.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, id := range plan.Final {
		written += e.Result(id).Bytes
	}
	if written != plan.TotalBytes {
		t.Fatalf("wrote %d of %d bytes", written, plan.TotalBytes)
	}
	if plan.Rounds < 1 {
		t.Fatalf("rounds = %d", plan.Rounds)
	}
}

func TestRoundsScaleWithData(t *testing.T) {
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	pl, _ := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	eSmall := r.engine(t)
	small, err := pl.Plan(eSmall, workload.Dense(r.job.NumRanks(), 16<<10))
	if err != nil {
		t.Fatal(err)
	}
	eBig := r.engine(t)
	big, err := pl.Plan(eBig, workload.Dense(r.job.NumRanks(), 4<<20))
	if err != nil {
		t.Fatal(err)
	}
	if big.Rounds <= small.Rounds {
		t.Fatalf("rounds small=%d big=%d", small.Rounds, big.Rounds)
	}
}

func TestEmptyBurst(t *testing.T) {
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	pl, _ := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	e := r.engine(t)
	plan, err := pl.Plan(e, make([]int64, r.job.NumRanks()))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Final) != 0 {
		t.Fatal("empty burst produced flows")
	}
}

func TestNegativeDataRejected(t *testing.T) {
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	pl, _ := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	e := r.engine(t)
	bad := make([]int64, r.job.NumRanks())
	bad[0] = -1
	if _, err := pl.Plan(e, bad); err == nil {
		t.Fatal("negative data accepted")
	}
}

func TestDefaultWritesFavorOneBridge(t *testing.T) {
	// The clustered default aggregators mostly share a single default
	// bridge per pset, leaving the other 11th link underused — one of
	// the two inefficiencies behind Fig. 10.
	r := newRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)
	pl, _ := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	e := r.engine(t)
	if _, err := pl.Plan(e, workload.Dense(r.job.NumRanks(), 1<<20)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	lb := e.LinkBytes()
	var heavy, light float64
	for pi := 0; pi < r.ios.NumPsets(); pi++ {
		a := lb[r.ios.Pset(pi).Uplink(0)]
		b := lb[r.ios.Pset(pi).Uplink(1)]
		if a < b {
			a, b = b, a
		}
		heavy += a
		light += b
	}
	if heavy < 2*light {
		t.Fatalf("default bridges not imbalanced: heavy %g light %g", heavy, light)
	}
}

// The Fig. 10 core comparison at reduced scale: topology-aware dynamic
// aggregation beats default collective I/O on both sparse patterns.
func TestTopologyAwareBeatsDefault(t *testing.T) {
	r := newRig(t, torus.Shape{4, 4, 4, 16, 2}, 16)

	throughput := func(data []int64, ours bool) float64 {
		e := r.engine(t)
		var total int64
		var final []netsim.FlowID
		var meta float64
		if ours {
			pl, err := core.NewAggPlanner(r.ios, r.job, r.p, core.DefaultAggConfig())
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pl.Plan(e, data)
			if err != nil {
				t.Fatal(err)
			}
			total, final, meta = plan.TotalBytes, plan.Final, float64(plan.Metadata)
		} else {
			pl, err := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pl.Plan(e, data)
			if err != nil {
				t.Fatal(err)
			}
			total, final, meta = plan.TotalBytes, plan.Final, float64(plan.Metadata)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		_ = final
		return float64(total) / (float64(mk) + meta)
	}

	p1 := workload.Uniform(r.job.NumRanks(), 8<<20, 21)
	gain1 := throughput(p1, true) / throughput(p1, false)
	if gain1 < 1.4 {
		t.Fatalf("Pattern 1 gain %.2fx, want >= 1.4x (paper: 2-3x)", gain1)
	}

	p2 := workload.Pattern2(r.job.NumRanks(), 8<<20, 22)
	gain2 := throughput(p2, true) / throughput(p2, false)
	if gain2 < 1.2 {
		t.Fatalf("Pattern 2 gain %.2fx, want >= 1.2x (paper: 1.5-2x)", gain2)
	}
	t.Logf("gains: pattern1 %.2fx, pattern2 %.2fx", gain1, gain2)
}

func TestFileDomainBoundaryCrossing(t *testing.T) {
	// Craft sizes so node ranges straddle domain and round-window
	// boundaries; every byte must still arrive exactly once.
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	cfg := DefaultConfig()
	cfg.AggregatorsPerPset = 4
	cfg.BufferBytes = 300_000 // deliberately not a power of two
	pl, err := NewPlanner(r.ios, r.job, r.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]int64, r.job.NumRanks())
	for i := range data {
		// Irregular sizes, some zero.
		switch i % 5 {
		case 0:
			data[i] = 0
		case 1:
			data[i] = 777
		case 2:
			data[i] = 123_457
		case 3:
			data[i] = 1 << 20
		case 4:
			data[i] = 54_321
		}
	}
	e := r.engine(t)
	plan, err := pl.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, id := range plan.Final {
		written += e.Result(id).Bytes
	}
	if written != plan.TotalBytes {
		t.Fatalf("wrote %d of %d bytes across domain boundaries", written, plan.TotalBytes)
	}
}

func TestRoundSyncOffStillDeliversAll(t *testing.T) {
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	cfg := DefaultConfig()
	cfg.RoundSync = false
	pl, err := NewPlanner(r.ios, r.job, r.p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	data := workload.Uniform(r.job.NumRanks(), 2<<20, 77)
	e := r.engine(t)
	plan, err := pl.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, id := range plan.Final {
		written += e.Result(id).Bytes
	}
	if written != plan.TotalBytes {
		t.Fatalf("wrote %d of %d", written, plan.TotalBytes)
	}
}

func TestSingleRankBurst(t *testing.T) {
	// One rank holds everything: the degenerate sparse extreme.
	r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 16)
	pl, _ := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
	data := make([]int64, r.job.NumRanks())
	data[1234] = 64 << 20
	e := r.engine(t)
	plan, err := pl.Plan(e, data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var written int64
	for _, id := range plan.Final {
		written += e.Result(id).Bytes
	}
	if written != 64<<20 {
		t.Fatalf("wrote %d", written)
	}
}

// A collective write has no fault-aware routing: a failed link on an
// exchange's default route or on an aggregator's write leg fails the
// plan, instead of reaching the engine's fail-stop panic at Submit.
func TestPlanFailsOnCutRoutes(t *testing.T) {
	data := func(r *rig) []int64 { return workload.Dense(r.job.NumRanks(), 1<<16) }
	t.Run("exchange", func(t *testing.T) {
		r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 1)
		p, err := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Fail the first hop out of a node that is not an aggregator.
		agg := map[torus.NodeID]bool{}
		for _, n := range p.Aggregators() {
			agg[n] = true
		}
		src := torus.NodeID(0)
		for agg[src] {
			src++
		}
		for _, dst := range p.Aggregators() {
			if links := r.net.Route(src, dst).Links; len(links) > 0 {
				r.net.FailLink(links[0])
			}
		}
		if _, err := p.Plan(r.engine(t), data(r)); err == nil || !strings.Contains(err.Error(), "exchange") {
			t.Fatalf("plan over a cut exchange route: %v", err)
		}
	})
	t.Run("write", func(t *testing.T) {
		r := newRig(t, torus.Shape{2, 2, 4, 4, 2}, 1)
		p, err := NewPlanner(r.ios, r.job, r.p, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range p.Aggregators() {
			pi, bi := r.ios.DefaultPath(n)
			links, _ := r.ios.WriteRouteVia(n, pi, bi)
			r.net.FailLink(links[len(links)-1])
		}
		if _, err := p.Plan(r.engine(t), data(r)); err == nil || !strings.Contains(err.Error(), "write leg") {
			t.Fatalf("plan over a cut write leg: %v", err)
		}
	})
}
