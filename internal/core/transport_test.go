package core

import (
	"sync"
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/routing"
	"bgqflow/internal/torus"
)

// resilientPlanner returns the planner resilient transfers run on: the
// operating point, whose waves take their threshold from the cost model.
func resilientPlanner(t *testing.T, tor *torus.Torus) *PairPlanner {
	t.Helper()
	tr, err := NewPairPlanner(tor, DefaultProxyConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// interactiveEngine returns a fresh interactive engine over net.
func interactiveEngine(t *testing.T, net *netsim.Network) *netsim.Engine {
	t.Helper()
	e, err := netsim.NewEngine(net, netsim.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	e.BeginInteractive()
	return e
}

// move runs one fault-free resilient transfer on a fresh engine over net.
func move(t *testing.T, tr *PairPlanner, net *netsim.Network, src, dst torus.NodeID, bytes int64) (TransferReport, *netsim.Engine) {
	t.Helper()
	e := interactiveEngine(t, net)
	rep, err := tr.MoveResilient(e, src, dst, bytes, DefaultRecoveryConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete || rep.Attempts != 1 {
		t.Fatalf("%d->%d (%dB): %+v, want one complete wave", src, dst, bytes, rep)
	}
	return rep, e
}

func TestTransportModeSelection(t *testing.T) {
	tor := mira128()
	tr := resilientPlanner(t, tor)
	net := netsim.NewNetwork(tor, netsim.DefaultParams().LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	if small, _ := move(t, tr, net, src, dst, 16<<10); small.FinalMode != Direct {
		t.Fatalf("16KB moved %v", small.FinalMode)
	}
	if big, _ := move(t, tr, net, src, dst, 16<<20); big.FinalMode != Proxied {
		t.Fatalf("16MB moved %v", big.FinalMode)
	}
}

func TestTransportMatchesPlanner(t *testing.T) {
	tor := mira128()
	tr := resilientPlanner(t, tor)
	const bytes = 64 << 20
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	rep, _ := move(t, tr, netsim.NewNetwork(tor, netsim.DefaultParams().LinkBandwidth), src, dst, bytes)

	pl, _ := NewPairPlanner(tor, DefaultProxyConfig())
	eP := newEngine(t, tor)
	if _, err := pl.PlanPair(eP, src, dst, bytes); err != nil {
		t.Fatal(err)
	}
	mkP, err := eP.Run()
	if err != nil {
		t.Fatal(err)
	}
	rT := netsim.Throughput(bytes, rep.Makespan)
	rP := netsim.Throughput(bytes, mkP)
	if rT < rP*0.95 || rT > rP*1.05 {
		t.Fatalf("resilient %.3g vs one-shot plan %.3g", rT, rP)
	}
}

// TestTransportFaultsInvalidateCache: a PairPlanner remembers no selection
// between transfers, so a link that fails after one transfer steers the
// next one away from the proxy leg it used.
func TestTransportFaultsInvalidateCache(t *testing.T) {
	tor := mira128()
	tr := resilientPlanner(t, tor)
	net := netsim.NewNetwork(tor, netsim.DefaultParams().LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)

	first, e1 := move(t, tr, net, src, dst, 16<<20)
	if first.FinalMode != Proxied {
		t.Fatal("expected proxied")
	}
	// Fail the first hop of a leg the first transfer used.
	leg := -1
	for id := 0; id < e1.NumFlows(); id++ {
		if links := e1.FlowRouteLinks(netsim.FlowID(id)); len(links) > 0 && e1.Spec(netsim.FlowID(id)).Src == src {
			leg = links[0]
			break
		}
	}
	if leg < 0 {
		t.Fatal("first transfer submitted no leg out of the source")
	}
	net.FailLink(leg)

	_, e2 := move(t, tr, net, src, dst, 16<<20)
	for id := 0; id < e2.NumFlows(); id++ {
		for _, l := range e2.FlowRouteLinks(netsim.FlowID(id)) {
			if net.LinkFailed(l) {
				t.Fatal("post-fault selection crosses a failed link")
			}
		}
	}
}

func TestTransportDirectFaultAware(t *testing.T) {
	tor := mira128()
	tr := resilientPlanner(t, tor)
	net := netsim.NewNetwork(tor, netsim.DefaultParams().LinkBandwidth)
	src, dst := torus.NodeID(0), torus.NodeID(tor.Size()-1)
	def := routing.DeterministicRoute(tor, src, dst)
	net.FailLink(def.Links[0])
	rep, _ := move(t, tr, net, src, dst, 4<<10) // small: direct
	if rep.FinalMode != Direct {
		t.Fatalf("4KB moved %v", rep.FinalMode)
	}
}

func TestTransportValidation(t *testing.T) {
	tor := mira128()
	tr := resilientPlanner(t, tor)
	e := interactiveEngine(t, netsim.NewNetwork(tor, netsim.DefaultParams().LinkBandwidth))
	rc := DefaultRecoveryConfig()
	if _, err := tr.MoveResilient(e, 0, 1, -1, rc); err == nil {
		t.Fatal("negative size accepted")
	}
	if _, err := tr.MoveResilient(e, 0, torus.NodeID(9999), 1, rc); err == nil {
		t.Fatal("bad endpoint accepted")
	}
}

func TestTransportConcurrentMoves(t *testing.T) {
	// Concurrent transfers through one planner must be safe; each
	// goroutine gets its own engine.
	tor := mira128()
	tr := resilientPlanner(t, tor)
	p := netsim.DefaultParams()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			net := netsim.NewNetwork(tor, p.LinkBandwidth)
			for i := 0; i < 20; i++ {
				src := torus.NodeID((g * 13) % tor.Size())
				dst := torus.NodeID((g*29 + i) % tor.Size())
				if src == dst {
					continue
				}
				e, err := netsim.NewEngine(net, p)
				if err != nil {
					errs[g] = err
					return
				}
				e.BeginInteractive()
				if _, err := tr.MoveResilient(e, src, dst, 4<<20, DefaultRecoveryConfig()); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
