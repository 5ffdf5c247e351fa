package check

// Mutation tests: the ISSUE's acceptance bar requires proof that the
// oracle catches each invariant class, not just that the current code
// passes it. Each test injects one deliberate corruption — a shrunk
// capacity, a tampered counter, a perturbed physics constant, an
// overlapping leg — and fails if the corresponding checker stays quiet.

import (
	"strings"
	"testing"

	"bgqflow/internal/core"
	"bgqflow/internal/netsim"
	"bgqflow/internal/obs"
	"bgqflow/internal/routing"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

func wantViolation(t *testing.T, viols []Violation, invariant string) {
	t.Helper()
	for _, v := range viols {
		if v.Invariant == invariant {
			return
		}
	}
	t.Fatalf("injected %s corruption not caught (violations: %v)", invariant, viols)
}

// Capacity class: audit against 40%% of the real capacity — a correct
// run must now look oversubscribed.
func TestMutationCapacityAuditFires(t *testing.T) {
	var a *Auditor
	sc := Generate(3)
	if _, err := RunNetsim(sc, func(e *netsim.Engine) {
		a = NewAuditor(e)
		a.capScale = 0.4
	}); err != nil {
		t.Fatal(err)
	}
	wantViolation(t, a.Finish(), "capacity")
}

// Conservation class: tamper with one link's window-charge sum.
func TestMutationConservationFires(t *testing.T) {
	var a *Auditor
	sc := Generate(3)
	if _, err := RunNetsim(sc, func(e *netsim.Engine) { a = NewAuditor(e) }); err != nil {
		t.Fatal(err)
	}
	a.sums[0] += 4096
	wantViolation(t, a.Finish(), "conservation")
}

// Timeline class: a timeline holding bytes the engine never charged.
func TestMutationTimelineFires(t *testing.T) {
	tl := obs.NewLinkTimeline(1e-6)
	tl.Add(0, 0, 1e-6, 1000)
	linkBytes := []float64{1000, 0}
	if v := CheckTimelineConservation(tl, linkBytes); len(v) != 0 {
		t.Fatalf("clean timeline flagged: %v", v)
	}
	tl.Add(0, 1e-6, 2e-6, 1) // one stray byte
	wantViolation(t, CheckTimelineConservation(tl, linkBytes), "timeline")
}

// Differential classes: perturb each field CompareRuns watches and
// assert the right divergence kind fires.
func TestMutationCompareRunsFires(t *testing.T) {
	sc := Generate(3)
	base, err := RunRef(sc)
	if err != nil {
		t.Fatal(err)
	}
	perturb := func(mut func(*RunOutput)) RunOutput {
		out := RunOutput{
			Flows:     append([]RefResult(nil), base.Flows...),
			LinkBytes: append([]float64(nil), base.LinkBytes...),
		}
		mut(&out)
		return out
	}
	cases := []struct {
		name string
		kind string
		mut  func(*RunOutput)
	}{
		{"outcome flip", "outcome", func(o *RunOutput) { o.Flows[0].Done = !o.Flows[0].Done }},
		{"completion shift", "time", func(o *RunOutput) { o.Flows[0].Completed += 1e-3 }},
		{"byte leak", "link_bytes", func(o *RunOutput) { o.LinkBytes[0] += 1 }},
	}
	if divs := CompareRuns(base, base); len(divs) != 0 {
		t.Fatalf("identical runs diverge: %v", divs)
	}
	for _, c := range cases {
		divs := CompareRuns(perturb(c.mut), base)
		found := false
		for _, d := range divs {
			if d.Kind == c.kind {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: no %q divergence reported (got %v)", c.name, c.kind, divs)
		}
	}
}

// Physics-drift class: the differential must notice a changed machine
// constant — here the reference pays 1 µs more receiver overhead, the
// kind of silent unit drift the two independent parameter structs exist
// to catch.
func TestMutationPhysicsDriftFires(t *testing.T) {
	sc := Generate(3)
	got, err := RunNetsim(sc, nil)
	if err != nil {
		t.Fatal(err)
	}
	mutated := sc
	mutated.Params.ReceiverOverhead += 1e-6
	want, err := RunRef(mutated)
	if err != nil {
		t.Fatal(err)
	}
	divs := CompareRuns(got, want)
	found := false
	for _, d := range divs {
		if d.Kind == "time" {
			found = true
		}
	}
	if !found {
		t.Fatalf("1µs receiver-overhead drift produced no time divergence (got %v)", divs)
	}
}

// Proxy-disjointness class: two proxies sharing a leg link, and legs
// that do not meet at the proxy node.
func TestMutationProxyDisjointFires(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 3, 3, 1})
	pl, err := core.NewPairPlanner(tor, core.DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	proxies := pl.SelectProxies(src, dst)
	if len(proxies) < 2 {
		t.Fatalf("need 2 proxies, got %d", len(proxies))
	}
	overlap := []core.ProxyRoute{proxies[0], proxies[1]}
	overlap[1].Leg1 = proxies[0].Leg1 // share proxy 0's first leg links
	wantViolation(t, CheckProxyDisjoint(overlap), "proxy-disjoint")

	broken := []core.ProxyRoute{proxies[0]}
	broken[0].Proxy = dst // legs no longer meet at the proxy
	wantViolation(t, CheckProxyDisjoint(broken), "proxy-disjoint")
}

// Aggregation classes: an I/O node hoarding more than one message
// beyond its peers, and an aggregator list that stops interleaving.
func TestMutationAggChecksFire(t *testing.T) {
	wantViolation(t, CheckAggBalance([]int64{10 << 20, 1 << 20}, 1<<20), "agg-balance")
	aggs := []core.Aggregator{
		{Pset: 0, Bridge: 0},
		{Pset: 0, Bridge: 0}, // should be pset 1
	}
	wantViolation(t, CheckAggInterleave(aggs, 2, 2), "agg-interleave")
}

// Route-cache class: compare the cache against a deliberately different
// router (reversed endpoints) — equality must fail.
func TestMutationRouteCacheFires(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	tp := topo.NewTorus(tor)
	c := routing.NewCache(tp.Route)
	pairs := [][2]torus.NodeID{{0, 37}, {5, 100}}
	wrongRef := func(src, dst torus.NodeID) []int { return tp.Route(dst, src) }
	wantViolation(t, CheckRouteCache(c, pairs, 2, wrongRef), "route-cache")
}

// Plan/model class: a fabricated plan that proxies below the threshold
// with too few proxies — every clause of the agreement check must bite —
// and a fabricated resilient wave that proxies 1 KB, far below the
// model's threshold.
func TestMutationPlanModelFires(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	cfg := core.DefaultProxyConfig()
	src := tor.ID(torus.Coord{0, 0, 0, 0, 0})
	dst := tor.ID(torus.Coord{1, 1, 3, 3, 1})
	pl, err := core.NewPairPlanner(tor, cfg)
	if err != nil {
		t.Fatal(err)
	}
	proxies := pl.SelectProxies(src, dst)
	lie := core.PairPlan{Mode: core.Proxied, Proxies: proxies[:1], Bytes: 1 << 10}
	viols := CheckPlanModelAgreement(tor, cfg, lie, src, dst, 1<<10)
	wantViolation(t, viols, "plan-model")
	var below, few bool
	for _, v := range viols {
		if strings.Contains(v.Detail, "threshold") {
			below = true
		}
		if strings.Contains(v.Detail, "outside [3,") {
			few = true
		}
	}
	if !below || !few {
		t.Fatalf("expected both threshold and proxy-count violations, got %v", viols)
	}

	wave := []core.TransferEvent{{Kind: core.EventWave, Mode: core.Proxied, Proxies: len(proxies), Bytes: 1 << 10}}
	wantViolation(t, CheckWaveModelAgreement(tor, p, cfg, src, dst, wave), "plan-model")
}
