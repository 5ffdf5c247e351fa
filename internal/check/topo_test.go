package check

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/topo"
	"bgqflow/internal/torus"
)

// TestDifferentialSeedsTopo is the topology axis of the 200-seed suite:
// dragonfly and fat-tree scenarios (a third with a heterogeneous cost
// model) through both engines. Any divergence is a topology or
// cost-model bug — archive the failing seed and fix it.
func TestDifferentialSeedsTopo(t *testing.T) {
	if testing.Short() {
		t.Skip("topology differential sweep is seconds-long; skipped in -short")
	}
	families := map[string]int{}
	for seed := int64(0); seed < 200; seed++ {
		sc := GenerateTopo(seed)
		families[sc.Topology]++
		if divs := RunDifferential(sc); len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			t.Fatalf("seed %d: %d divergences (%d flows on %s cost=%q, %d link / %d node failures)",
				seed, len(divs), len(sc.Flows), sc.Topology, sc.CostModel, len(sc.LinkFailures), len(sc.NodeFailures))
		}
	}
	// The generator must actually exercise every configured fabric.
	for _, spec := range genTopoSpecs {
		if families[spec] == 0 {
			t.Errorf("200 seeds never drew %s", spec)
		}
	}
}

// TestTopoInvariants attaches the live Auditor to topology scenarios:
// byte conservation, link capacity, and per-flow rate-cap invariants must
// hold on dragonfly and fat-tree exactly as on the torus.
func TestTopoInvariants(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		var a *Auditor
		sc := GenerateTopo(seed)
		if _, err := RunNetsim(sc, func(e *netsim.Engine) { a = NewAuditor(e) }); err != nil {
			t.Fatalf("seed %d (%s): %v", seed, sc.Topology, err)
		}
		if viols := a.Finish(); len(viols) > 0 {
			for _, v := range viols {
				t.Errorf("seed %d (%s): %s", seed, sc.Topology, v)
			}
		}
		if a.SweepsAudited() == 0 {
			t.Errorf("seed %d (%s): auditor sampled no sweeps", seed, sc.Topology)
		}
	}
}

// TestGenerateTopoDeterministic pins the archive-a-seed contract for the
// topology generator.
func TestGenerateTopoDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a, err := json.Marshal(GenerateTopo(seed))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(GenerateTopo(seed))
		if string(a) != string(b) {
			t.Fatalf("seed %d: generator is not deterministic", seed)
		}
	}
}

// TestTopoScenarioRoundTrip pins the JSON schema: topology and cost
// model survive the archive round trip, and a torus scenario serializes
// without either field (the BG/Q-default compatibility rule — old
// corpus files and new torus files are the same bytes).
func TestTopoScenarioRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := GenerateTopo(3)
	sc.CostModel = "hetero:3"
	path := filepath.Join(dir, "topo.json")
	if err := WriteScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != sc.Topology || got.CostModel != sc.CostModel {
		t.Fatalf("round trip lost the topology axis: %+v", got)
	}

	tor := Generate(3)
	if tor.Topology != "" || tor.CostModel != "" {
		t.Fatalf("torus generator must leave the topology fields empty: %+v", tor)
	}
	path = filepath.Join(dir, "torus.json")
	if err := WriteScenario(path, tor); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"topology", "cost_model"} {
		if _, present := raw[field]; present {
			t.Fatalf("torus scenario JSON must omit %q (BG/Q-default rule)", field)
		}
	}
}

// TestTopoNetworkMatchesTorusNetwork pins the byte-identical-default
// guarantee at the network layer: a network built through the topology
// adapter is indistinguishable from one built from the torus directly.
func TestTopoNetworkMatchesTorusNetwork(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 3, 4})
	direct := netsim.NewNetwork(tor, 1.8e9)
	viaTopo := netsim.NewNetworkTopo(topo.NewTorus(tor), 1.8e9)
	if viaTopo.Torus() == nil {
		t.Fatal("torus adapter network must keep a non-nil Torus()")
	}
	if direct.NumLinks() != viaTopo.NumLinks() || direct.NumNodes() != viaTopo.NumNodes() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", direct.NumLinks(), direct.NumNodes(), viaTopo.NumLinks(), viaTopo.NumNodes())
	}
	for l := 0; l < direct.NumLinks(); l++ {
		if direct.Capacity(l) != viaTopo.Capacity(l) {
			t.Fatalf("link %d capacity %g vs %g", l, direct.Capacity(l), viaTopo.Capacity(l))
		}
	}
	for src := 0; src < tor.Size(); src++ {
		for dst := 0; dst < tor.Size(); dst++ {
			a := direct.Route(torus.NodeID(src), torus.NodeID(dst)).Links
			b := viaTopo.Route(torus.NodeID(src), torus.NodeID(dst)).Links
			if len(a) != len(b) {
				t.Fatalf("route %d->%d differs", src, dst)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("route %d->%d differs at hop %d", src, dst, i)
				}
			}
		}
	}
}

// TestUniformCostModelIsIdentity pins that installing the uniform cost
// model built from the engine's own Params changes nothing: same flows,
// same timelines, same link bytes, bit for bit.
func TestUniformCostModelIsIdentity(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		sc := Generate(seed)
		plain, err := RunNetsim(sc, nil)
		if err != nil {
			continue
		}
		modeled, err := RunNetsim(sc, func(e *netsim.Engine) {
			e.SetCostModel(netsim.CostModelFromParams(e.Params()))
		})
		if err != nil {
			t.Fatalf("seed %d: modeled run errored: %v", seed, err)
		}
		if len(plain.Flows) != len(modeled.Flows) {
			t.Fatalf("seed %d: flow counts differ", seed)
		}
		for i := range plain.Flows {
			if plain.Flows[i] != modeled.Flows[i] {
				t.Fatalf("seed %d flow %d: %+v vs %+v", seed, i, plain.Flows[i], modeled.Flows[i])
			}
		}
		for l := range plain.LinkBytes {
			if plain.LinkBytes[l] != modeled.LinkBytes[l] {
				t.Fatalf("seed %d link %d: %g vs %g", seed, l, plain.LinkBytes[l], modeled.LinkBytes[l])
			}
		}
	}
}

// TestHeteroCostModelShapesRates pins the heterogeneous model's
// observable effect end to end: on a fat-tree where only node 0 is
// GPU-tier, a GPU->GPU flow finishes faster than the same-length
// CPU->CPU flow because its endpoint cap doubles.
func TestHeteroCostModelShapesRates(t *testing.T) {
	tp, err := topo.Parse("fattree:8x4x1")
	if err != nil {
		t.Fatal(err)
	}
	p := netsim.DefaultParams()
	cm, err := topo.NewHetero(netsim.CostModelFromParams(p), 4) // nodes 0 and 4 are GPU
	if err != nil {
		t.Fatal(err)
	}

	run := func(src, dst torus.NodeID) float64 {
		net := netsim.NewNetworkTopo(tp, p.LinkBandwidth*4) // links never bottleneck
		e, err := netsim.NewEngine(net, p)
		if err != nil {
			t.Fatal(err)
		}
		e.SetCostModel(cm)
		id := e.Submit(netsim.FlowSpec{Src: src, Dst: dst, Bytes: 64 << 20})
		if _, err := e.Run(); err != nil {
			t.Fatal(err)
		}
		res := e.Result(id)
		return float64(res.TransferEnd - res.Activated)
	}

	gpu := run(0, 4) // both GPU-tier: 2x rate cap
	cpu := run(1, 5) // both CPU-tier: base rate cap
	if gpu >= cpu {
		t.Fatalf("GPU->GPU transfer (%gs) not faster than CPU->CPU (%gs)", gpu, cpu)
	}
	if ratio := cpu / gpu; ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("rate ratio %g, want ~2 (the hetero rate scale)", ratio)
	}
}
