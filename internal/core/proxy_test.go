package core

import (
	"math/rand"
	"runtime"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

func mira128() *torus.Torus { return torus.MustNew(torus.Shape{2, 2, 4, 4, 2}) }

func newEngine(t *testing.T, tor *torus.Torus) *netsim.Engine {
	t.Helper()
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDefaultProxyConfigValid(t *testing.T) {
	if err := DefaultProxyConfig().validate(5); err != nil {
		t.Fatal(err)
	}
}

func TestProxyConfigValidation(t *testing.T) {
	cases := []ProxyConfig{
		{Proxies: 11},
	}
	for i, c := range cases {
		if err := c.validate(5); err == nil {
			t.Errorf("case %d accepted: %+v", i, c)
		}
	}
}

func TestSelectProxiesCornerToCorner(t *testing.T) {
	tor := mira128()
	pl, err := NewPairPlanner(tor, DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	src := torus.NodeID(0)
	dst := torus.NodeID(tor.Size() - 1)
	proxies := pl.SelectProxies(src, dst)
	if len(proxies) < 4 {
		t.Fatalf("found %d proxies on the Fig. 5 geometry, paper used 4", len(proxies))
	}
	// All legs pairwise link-disjoint.
	seen := map[int]string{}
	for i, pr := range proxies {
		for _, leg := range []routing.Route{pr.Leg1, pr.Leg2} {
			for _, l := range leg.Links {
				if who, ok := seen[l]; ok {
					t.Fatalf("proxy %d (%v) reuses link %d already used by %s", i, pr.Proxy, l, who)
				}
				seen[l] = pr.Leg1.String()
			}
		}
		// Legs connect properly.
		if pr.Leg1.Src != src || pr.Leg1.Dst != pr.Proxy {
			t.Fatalf("proxy %d leg1 endpoints wrong", i)
		}
		if pr.Leg2.Src != pr.Proxy || pr.Leg2.Dst != dst {
			t.Fatalf("proxy %d leg2 endpoints wrong", i)
		}
		if pr.Proxy == src || pr.Proxy == dst {
			t.Fatalf("proxy %d is an endpoint", i)
		}
	}
}

func TestSelectProxiesSelfPair(t *testing.T) {
	tor := mira128()
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	if got := pl.SelectProxies(3, 3); got != nil {
		t.Fatalf("self pair returned %d proxies", len(got))
	}
}

func TestSelectProxiesRespectsMaxProxies(t *testing.T) {
	tor := mira128()
	pl, _ := NewPairPlanner(tor, ProxyConfig{Proxies: 2})
	got := pl.SelectProxies(0, torus.NodeID(tor.Size()-1))
	if len(got) > 2 {
		t.Fatalf("Proxies=2 but got %d", len(got))
	}
}

func TestPlanPairSmallMessageGoesDirect(t *testing.T) {
	tor := mira128()
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	e := newEngine(t, tor)
	plan, err := pl.PlanPair(e, 0, torus.NodeID(tor.Size()-1), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != Direct {
		t.Fatalf("64KB message planned as %v, want direct (threshold 256KB)", plan.Mode)
	}
	if len(plan.Flows) != 1 {
		t.Fatalf("direct plan has %d flows", len(plan.Flows))
	}
}

func TestPlanPairLargeMessageUsesProxies(t *testing.T) {
	tor := mira128()
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	e := newEngine(t, tor)
	plan, err := pl.PlanPair(e, 0, torus.NodeID(tor.Size()-1), 32<<20)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Mode != Proxied {
		t.Fatalf("32MB message planned as %v", plan.Mode)
	}
	if len(plan.Final) != len(plan.Proxies) {
		t.Fatalf("%d final flows for %d proxies", len(plan.Final), len(plan.Proxies))
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// All data arrives.
	var arrived int64
	for _, id := range plan.Final {
		r := e.Result(id)
		if !r.Done {
			t.Fatal("final flow not done")
		}
		arrived += r.Bytes
	}
	if arrived != 32<<20 {
		t.Fatalf("%d bytes arrived, want %d", arrived, 32<<20)
	}
}

// The Fig. 5 shape: proxied transfers beat direct ~2x at 128 MB and lose
// below the threshold, on the paper's exact 128-node geometry.
func TestFig5Crossover(t *testing.T) {
	tor := mira128()
	// run moves bytes corner to corner, planned under cfg, or on the
	// direct path when cfg is nil.
	run := func(bytes int64, cfg *ProxyConfig) float64 {
		e := newEngine(t, tor)
		src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
		if cfg == nil {
			e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: bytes})
		} else {
			pl, _ := NewPairPlanner(tor, *cfg)
			if _, err := pl.PlanPair(e, src, dst, bytes); err != nil {
				t.Fatal(err)
			}
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Throughput(bytes, mk)
	}

	const big = 128 << 20
	gain := run(big, &ProxyConfig{Proxies: 4}) / run(big, nil) // the paper uses 4 proxies in Fig. 5
	if gain < 1.6 || gain > 2.4 {
		t.Fatalf("128MB proxy gain = %.2fx, want ~2x", gain)
	}
	const small = 32 << 10
	if run(small, &ProxyConfig{}) < run(small, nil)*0.99 {
		t.Fatal("below threshold the planner must not lose to direct (it should choose direct itself)")
	}
}

func TestPipelineExtensionBeatsPlainProxies(t *testing.T) {
	tor := mira128()
	const bytes = 64 << 20
	run := func(pipeline bool) float64 {
		pl, err := NewPairPlanner(tor, ProxyConfig{Proxies: 4, Pipeline: pipeline})
		if err != nil {
			t.Fatal(err)
		}
		e := newEngine(t, tor)
		if _, err := pl.PlanPair(e, 0, torus.NodeID(tor.Size()-1), bytes); err != nil {
			t.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return netsim.Throughput(bytes, mk)
	}
	plain := run(false)
	piped := run(true)
	if piped <= plain {
		t.Fatalf("pipelining did not help: plain %.3g, piped %.3g", plain, piped)
	}
}

func TestPlanPairNegativeBytes(t *testing.T) {
	tor := mira128()
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	e := newEngine(t, tor)
	if _, err := pl.PlanPair(e, 0, 1, -1); err == nil {
		t.Fatal("negative size accepted")
	}
}

func TestSplitBytes(t *testing.T) {
	pieces := splitBytes(10, 3)
	if pieces[0]+pieces[1]+pieces[2] != 10 {
		t.Fatalf("splitBytes lost bytes: %v", pieces)
	}
	if pieces[0] != 4 || pieces[1] != 3 || pieces[2] != 3 {
		t.Fatalf("splitBytes = %v", pieces)
	}
}

func TestProxySelectionDeterministic(t *testing.T) {
	tor := mira128()
	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	a := pl.SelectProxies(0, 100)
	b := pl.SelectProxies(0, 100)
	if len(a) != len(b) {
		t.Fatal("selection count changed between calls")
	}
	for i := range a {
		if a[i].Proxy != b[i].Proxy {
			t.Fatal("selection changed between calls")
		}
	}
}

// TestPairPlanFootprintFullMira pins the engine's per-touched-link state:
// a 2-flow plan on the full 49,152-node Mira torus (491,520 links),
// built, planned and simulated, allocates under 4 MB. An engine with
// dense per-link state allocated about 26 MB for it.
func TestPairPlanFootprintFullMira(t *testing.T) {
	tor := torus.MustNew(torus.Shape{8, 12, 16, 16, 2})
	p := netsim.DefaultParams()
	pl, err := NewPairPlanner(tor, ProxyConfig{Proxies: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pl.PlanPair(e, 0, torus.NodeID(tor.Size()-1), 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if len(plan.Flows) != 2 {
		t.Fatalf("plan has %d flows, want 2", len(plan.Flows))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("2-flow full-Mira plan allocated %d bytes, want < 4 MB", got)
	}
}

// BenchmarkSelectProxies measures Algorithm 1's proxy search for
// distinct pairs on the 2,048-node Fig. 6 partition.
func BenchmarkSelectProxies(b *testing.B) {
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	pl, err := NewPairPlanner(tor, DefaultProxyConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]torus.NodeID, 1024)
	for i := range pairs {
		pairs[i] = [2]torus.NodeID{torus.NodeID(rng.Intn(tor.Size())), torus.NodeID(rng.Intn(tor.Size()))}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		proxiesSink = pl.SelectProxies(p[0], p[1])
	}
}

var proxiesSink []ProxyRoute
