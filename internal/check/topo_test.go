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
// dragonfly and fat-tree scenarios through both engines. Any divergence
// is a topology bug — archive the failing seed and fix it.
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
			t.Fatalf("seed %d: %d divergences (%d flows on %s, %d link / %d node failures)",
				seed, len(divs), len(sc.Flows), sc.Topology, len(sc.LinkFailures), len(sc.NodeFailures))
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

// TestTopoScenarioRoundTrip pins the JSON schema: the topology survives
// the archive round trip, and a torus scenario serializes without it
// (the BG/Q-default compatibility rule — old corpus files and new torus
// files are the same bytes).
func TestTopoScenarioRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sc := GenerateTopo(3)
	path := filepath.Join(dir, "topo.json")
	if err := WriteScenario(path, sc); err != nil {
		t.Fatal(err)
	}
	got, err := ReadScenario(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Topology != sc.Topology {
		t.Fatalf("round trip lost the topology axis: %+v", got)
	}

	tor := Generate(3)
	if tor.Topology != "" {
		t.Fatalf("torus generator must leave the topology empty: %+v", tor)
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
	if _, present := raw["topology"]; present {
		t.Fatal(`torus scenario JSON must omit "topology" (BG/Q-default rule)`)
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
