package trace

import (
	"strings"
	"testing"

	"bgqflow/internal/ionet"
	"bgqflow/internal/netsim"
	"bgqflow/internal/sim"
	"bgqflow/internal/torus"
)

func runSmall(t *testing.T) (*netsim.Engine, *ionet.System, sim.Duration) {
	t.Helper()
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	net := netsim.NewNetwork(tor, p.LinkBandwidth)
	ios, err := ionet.Build(net)
	if err != nil {
		t.Fatal(err)
	}
	e, err := netsim.NewEngine(net, p)
	if err != nil {
		t.Fatal(err)
	}
	// One torus flow and one write.
	e.Submit(netsim.FlowSpec{Src: 0, Dst: 9, Bytes: 4 << 20})
	pi, bi := ios.DefaultPath(5)
	links, bridge := ios.WriteRouteVia(5, pi, bi)
	e.Submit(netsim.FlowSpec{Src: 5, Dst: bridge, Bytes: 2 << 20, Links: links})
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return e, ios, mk
}

func TestAnalyze(t *testing.T) {
	e, _, mk := runSmall(t)
	r := Analyze(e, mk, 5)
	if r.TorusBytes <= 0 {
		t.Fatal("no torus traffic recorded")
	}
	if r.ExtraBytes != 2<<20 {
		t.Fatalf("uplink traffic %g, want %d", r.ExtraBytes, 2<<20)
	}
	if r.BusyTorusLinks == 0 || r.BusyTorusLinks > r.TotalTorusLinks {
		t.Fatalf("busy links %d of %d", r.BusyTorusLinks, r.TotalTorusLinks)
	}
	if len(r.Hottest) == 0 || len(r.Hottest) > 5 {
		t.Fatalf("hottest %d", len(r.Hottest))
	}
	for i := 1; i < len(r.Hottest); i++ {
		if r.Hottest[i].Bytes > r.Hottest[i-1].Bytes {
			t.Fatal("hottest not sorted descending")
		}
	}
}

func TestLinkUtilizationBounds(t *testing.T) {
	e, _, mk := runSmall(t)
	for l := 0; l < e.Network().NumLinks(); l++ {
		u := LinkUtilization(e, 0, l)
		if u != 0 {
			t.Fatal("zero makespan should report zero utilization")
		}
		u = LinkUtilization(e, mk, l)
		if u < 0 || u > 1+1e-9 {
			t.Fatalf("link %d utilization %g outside [0,1]", l, u)
		}
	}
}

func TestUplinkLoads(t *testing.T) {
	e, ios, _ := runSmall(t)
	loads := UplinkLoads(e, ios)
	if len(loads) != ios.NumPsets()*2 {
		t.Fatalf("%d uplink loads", len(loads))
	}
	var total float64
	for _, l := range loads {
		total += l
	}
	if total != 2<<20 {
		t.Fatalf("uplinks carried %g, want %d", total, 2<<20)
	}
}

func TestReportWriteTo(t *testing.T) {
	e, _, mk := runSmall(t)
	r := Analyze(e, mk, 3)
	var sb strings.Builder
	if err := r.WriteTo(&sb, e); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "makespan") {
		t.Fatalf("report missing makespan: %s", sb.String())
	}
}
