package core

import (
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

// fig6Geometry returns the paper's Fig. 6 setup: a 2K-node 4x4x4x16x2
// torus with two 256-node groups at opposite ends — slabs whose pairwise
// routes run on per-pair-private rings, which is what the paper's clean
// ~1.6 GB/s direct throughput implies about their mapping.
func fig6Geometry(t *testing.T) (*torus.Torus, torus.Box, torus.Box) {
	t.Helper()
	tor := torus.MustNew(torus.Shape{4, 4, 4, 16, 2})
	s := torus.MustNewBox(tor, torus.Coord{0, 0, 0, 0, 0}, torus.Shape{1, 4, 4, 16, 1})
	d := torus.MustNewBox(tor, torus.Coord{2, 0, 0, 0, 1}, torus.Shape{1, 4, 4, 16, 1})
	return tor, s, d
}

// fig7Geometry returns the paper's Fig. 7 setup: a 512-node 4x4x4x4x2
// torus with two 32-node groups.
func fig7Geometry(t *testing.T) (*torus.Torus, torus.Box, torus.Box) {
	t.Helper()
	tor := torus.MustNew(torus.Shape{4, 4, 4, 4, 2})
	s := torus.MustNewBox(tor, torus.Coord{0, 0, 0, 0, 0}, torus.Shape{1, 1, 4, 4, 2})
	d := torus.MustNewBox(tor, torus.Coord{3, 3, 0, 0, 0}, torus.Shape{1, 1, 4, 4, 2})
	return tor, s, d
}

func TestSelectGroupDirectionsFig6(t *testing.T) {
	tor, s, d := fig6Geometry(t)
	groups := SelectGroupDirections(tor, s, d, 0)
	// The paper found 3 proxy groups on this geometry.
	if len(groups) != 3 {
		t.Fatalf("found %d proxy groups, paper found 3: %v", len(groups), groups)
	}
	for _, g := range groups {
		if g.Multiplier != 1 {
			t.Fatalf("auto mode returned a far translation %v", g)
		}
	}
}

func TestSelectGroupDirectionsFig7(t *testing.T) {
	tor, s, d := fig7Geometry(t)
	groups := SelectGroupDirections(tor, s, d, 0)
	// The paper set up at most 4 groups (A+, A-, B+, B-).
	if len(groups) != 4 {
		t.Fatalf("found %d proxy groups, paper found 4: %v", len(groups), groups)
	}
	for _, g := range groups {
		if g.Dim != 0 && g.Dim != 1 {
			t.Fatalf("group %v not along A or B", g)
		}
	}
}

func TestSelectGroupDirectionsForcedGoesFarther(t *testing.T) {
	tor, s, d := fig7Geometry(t)
	groups := SelectGroupDirections(tor, s, d, 5)
	if len(groups) != 5 {
		t.Fatalf("forced 5 returned %d", len(groups))
	}
	if groups[4].Multiplier < 2 {
		t.Fatalf("5th group should be a far translation, got %v", groups[4])
	}
}

func TestGroupRegionsDisjoint(t *testing.T) {
	tor, s, d := fig7Geometry(t)
	groups := SelectGroupDirections(tor, s, d, 0)
	inS := map[torus.NodeID]bool{}
	for _, n := range s.Nodes(tor) {
		inS[n] = true
	}
	inD := map[torus.NodeID]bool{}
	for _, n := range d.Nodes(tor) {
		inD[n] = true
	}
	seen := map[torus.NodeID]bool{}
	for _, g := range groups {
		region := translateNodes(tor, s.Nodes(tor), g.Dim, int(g.Dir)*g.Multiplier*s.Extent[g.Dim])
		for _, n := range region {
			if inS[n] || inD[n] || seen[n] {
				t.Fatalf("group %v region overlaps S, T, or another group at node %d", g, n)
			}
			seen[n] = true
		}
	}
}

func runGroupTransfer(t *testing.T, tor *torus.Torus, s, d torus.Box, bytesPerPair int64, force int) (float64, GroupPlan) {
	t.Helper()
	gp := NewGroupPlanner(tor, ProxyConfig{Proxies: force})
	p := netsim.DefaultParams()
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gp.Plan(e, s, d, bytesPerPair)
	if err != nil {
		t.Fatal(err)
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Per-pair average throughput, as the paper reports.
	return netsim.Throughput(bytesPerPair, mk), plan
}

func TestGroupTransferSmallGoesDirect(t *testing.T) {
	tor, s, d := fig7Geometry(t)
	_, plan := runGroupTransfer(t, tor, s, d, 128<<10, 0)
	if plan.Mode != Direct {
		t.Fatalf("128KB pairs planned as %v", plan.Mode)
	}
	if plan.DirectPairs != plan.PairCount {
		t.Fatalf("direct pairs %d of %d", plan.DirectPairs, plan.PairCount)
	}
}

func TestGroupTransferLargeUsesProxies(t *testing.T) {
	tor, s, d := fig6Geometry(t)
	th, plan := runGroupTransfer(t, tor, s, d, 16<<20, 0)
	if plan.Mode != Proxied {
		t.Fatalf("16MB pairs planned as %v", plan.Mode)
	}
	directTh, _ := runGroupTransfer(t, tor, s, d, 16<<20, -1)
	gain := th / directTh
	// 3 proxy groups -> the paper reports ~1.5x.
	if gain < 1.25 || gain > 1.8 {
		t.Fatalf("group proxy gain %.2fx, want ~1.5x for 3 groups", gain)
	}
}

// The Fig. 7 ordering: 2 groups ~ no improvement, 3 better, 4 best,
// 5 degrades below 4.
func TestFig7ProxyCountOrdering(t *testing.T) {
	tor, s, d := fig7Geometry(t)
	const bytes = 32 << 20
	th := map[int]float64{}
	for _, k := range []int{2, 3, 4, 5} {
		th[k], _ = runGroupTransfer(t, tor, s, d, bytes, k)
	}
	if th[3] <= th[2] {
		t.Fatalf("3 groups (%.3g) not better than 2 (%.3g)", th[3], th[2])
	}
	if th[4] <= th[3] {
		t.Fatalf("4 groups (%.3g) not better than 3 (%.3g)", th[4], th[3])
	}
	if th[5] >= th[4] {
		t.Fatalf("5 groups (%.3g) should degrade below 4 (%.3g)", th[5], th[4])
	}
}

func TestGroupPlannerSizeMismatch(t *testing.T) {
	tor, s, _ := fig7Geometry(t)
	small := torus.MustNewBox(tor, torus.Coord{3, 3, 0, 0, 0}, torus.Shape{1, 1, 1, 1, 1})
	gp := NewGroupPlanner(tor, DefaultProxyConfig())
	p := netsim.DefaultParams()
	e, _ := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if _, err := gp.Plan(e, s, small, 1<<20); err == nil {
		t.Fatal("group size mismatch accepted")
	}
}

func TestGroupTransferDeliversAllBytes(t *testing.T) {
	tor, s, d := fig7Geometry(t)
	gp := NewGroupPlanner(tor, DefaultProxyConfig())
	p := netsim.DefaultParams()
	e, _ := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	const per = 4 << 20
	plan, err := gp.Plan(e, s, d, per)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var arrived int64
	for _, id := range plan.Final {
		arrived += e.Result(id).Bytes
	}
	if want := int64(per) * int64(s.Size()); arrived != want {
		t.Fatalf("arrived %d bytes, want %d", arrived, want)
	}
}

// The future-work pipelining applied to group coupling: chunked
// store-and-forward lifts the k/2 factor toward k.
func TestGroupPipelineBeatsPlain(t *testing.T) {
	tor, s, d := fig6Geometry(t)
	const per = 32 << 20
	run := func(pipeline bool) float64 {
		gp := NewGroupPlanner(tor, ProxyConfig{Proxies: 3, Pipeline: pipeline})
		p := netsim.DefaultParams()
		e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := gp.Plan(e, s, d, per)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Mode != Proxied {
			t.Fatalf("mode %v", plan.Mode)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var arrived int64
		for _, id := range plan.Final {
			arrived += e.Result(id).Bytes
		}
		if want := int64(per) * int64(s.Size()); arrived != want {
			t.Fatalf("arrived %d, want %d", arrived, want)
		}
		return netsim.Throughput(per, mk)
	}
	plain := run(false)
	piped := run(true)
	if piped <= plain*1.15 {
		t.Fatalf("group pipelining gain too small: plain %.3g, piped %.3g", plain, piped)
	}
}
