package check

import (
	"testing"

	"bgqflow/internal/core"
	"bgqflow/internal/ionet"
	"bgqflow/internal/mpisim"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/routing"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// TestAuditorCleanRuns attaches the run-time auditor to generated
// scenarios: a correct engine must produce zero violations, and the
// sweep sampler must actually audit something.
func TestAuditorCleanRuns(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		var a *Auditor
		sc := Generate(seed)
		if _, err := RunNetsim(sc, func(e *netsim.Engine) { a = NewAuditor(e) }); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if viols := a.Finish(); len(viols) > 0 {
			for _, v := range viols {
				t.Errorf("seed %d: %s", seed, v)
			}
		}
		if a.SweepsAudited() == 0 {
			t.Errorf("seed %d: auditor sampled no sweeps", seed)
		}
	}
}

// TestAuditorRejectsOccupiedEngine pins the sink conflict: the auditor
// needs the LinkWindow stream, so attaching over an existing sink is a
// caller bug.
func TestAuditorRejectsOccupiedEngine(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 2})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetSink(obs.TimelineSink{TL: obs.NewLinkTimeline(1e-6)})
	defer func() {
		if recover() == nil {
			t.Fatal("NewAuditor on an engine with a sink did not panic")
		}
	}()
	NewAuditor(e)
}

// TestTimelineConservation drives a real run with a timeline sink and
// checks the integral against the engine's counters.
func TestTimelineConservation(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	tl := obs.NewLinkTimeline(10e-6)
	e.SetSink(obs.TimelineSink{TL: tl})
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	for i := 0; i < 8; i++ {
		dst := torus.NodeID((int(src) + 3*i + 1) % tor.Size())
		e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: 1 << 18})
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, v := range CheckTimelineConservation(tl, e.LinkBytes()) {
		t.Error(v)
	}
}

// TestCheckProxyDisjointOnRealSelection runs Algorithm 1's real
// selection and asserts the structural invariant holds.
func TestCheckProxyDisjointOnRealSelection(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 3, 3, 1})
	proxies := pl.SelectProxies(src, dst)
	if len(proxies) < 3 {
		t.Fatalf("only %d proxies selected", len(proxies))
	}
	for _, v := range CheckProxyDisjoint(proxies) {
		t.Error(v)
	}
}

// TestCheckAggInvariantsOnRealPlan runs Algorithm 2 end to end and
// checks interleaving and the per-I/O-node balance bound.
func TestCheckAggInvariantsOnRealPlan(t *testing.T) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	ios, err := ionet.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	job, err := mpisim.NewJob(tor, 16)
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewAggPlanner(ios, job, p, core.DefaultAggConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, aggs := a.AggregatorsFor(1 << 36)
	for _, v := range CheckAggInterleave(aggs, ios.NumPsets(), ionet.BridgesPerPset) {
		t.Error(v)
	}

	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	// A concentrated burst: one rank in eight holds 1 MB.
	data := make([]int64, job.NumRanks())
	for r := 0; r < len(data); r += 8 {
		data[r] = 1 << 20
	}
	if _, err := a.Plan(e, data); err != nil {
		t.Fatal(err)
	}
	ion := IONBytesFromFlows(e, ios.NumPsets())
	var total int64
	for _, b := range ion {
		total += b
	}
	if total == 0 {
		t.Fatal("no fabric flows found by label")
	}
	maxMsg := MaxCoalescedMessage(data, func(r int) int { return int(job.NodeOf(r)) }, tor.Size())
	for _, v := range CheckAggBalance(ion, maxMsg) {
		t.Error(v)
	}
}

// TestCheckRouteCacheClean verifies cached == fresh across epochs on a
// real cache, with exact hit/miss accounting.
func TestCheckRouteCacheClean(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	tp := topo.NewTorus(tor)
	c := routing.NewCache(tp.Route)
	var pairs [][2]torus.NodeID
	for i := 0; i < 12; i++ {
		pairs = append(pairs, [2]torus.NodeID{
			torus.NodeID((i * 7) % tor.Size()),
			torus.NodeID((i*13 + 5) % tor.Size()),
		})
	}
	for _, v := range CheckRouteCache(c, pairs, 4, tp.Route) {
		t.Error(v)
	}
}

// TestCheckCostModelClean checks the Eq. 1-5 structure across proxy
// counts and hop geometries.
func TestCheckCostModelClean(t *testing.T) {
	m, err := core.NewCostModel(netsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 4, 10} {
		for _, hops := range []int{1, 4, 16} {
			for _, v := range CheckCostModel(m, k, hops, 1, hops) {
				t.Errorf("k=%d hops=%d: %s", k, hops, v)
			}
		}
	}
}

// TestCheckPlanModelAgreementOnRealPlans plans real transfers — below
// and above the threshold, one-shot under each proxies mode and wave by
// wave on the model — and asserts the planner never contradicts the
// decision inputs.
func TestCheckPlanModelAgreementOnRealPlans(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 3, 3, 1})
	for _, cfg := range []core.ProxyConfig{{Proxies: -1}, {}, {Proxies: 4}} {
		pl, err := core.NewPairPlanner(tor, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, bytes := range []int64{1 << 10, 256 << 10, 8 << 20} {
			e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := pl.PlanPair(e, src, dst, bytes)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range CheckPlanModelAgreement(tor, cfg, plan, src, dst, bytes) {
				t.Errorf("proxies=%d bytes=%d: %s", cfg.Proxies, bytes, v)
			}
		}
	}

	// The operating point's resilient waves decide on the model.
	pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []int64{1 << 10, 256 << 10, 8 << 20} {
		e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
		if err != nil {
			t.Fatal(err)
		}
		e.BeginInteractive()
		var events []core.TransferEvent
		rc := core.DefaultRecoveryConfig()
		rc.OnEvent = func(ev core.TransferEvent) { events = append(events, ev) }
		if _, err := pl.MoveResilient(e, src, dst, bytes, rc); err != nil {
			t.Fatal(err)
		}
		if len(events) == 0 {
			t.Fatalf("bytes=%d: no events", bytes)
		}
		for _, v := range CheckWaveModelAgreement(tor, p, core.DefaultProxyConfig(), src, dst, events) {
			t.Errorf("resilient bytes=%d: %s", bytes, v)
		}
	}
}
