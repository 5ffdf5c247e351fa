package mpisim

import (
	"testing"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

func collRig(t *testing.T) (*Job, *netsim.Engine, netsim.Params) {
	t.Helper()
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	p := netsim.DefaultParams()
	j, err := NewJob(tor, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := netsim.NewEngine(netsim.NewNetwork(tor, p.LinkBandwidth), p)
	if err != nil {
		t.Fatal(err)
	}
	return j, e, p
}

// worldRanks lists every rank of j, in order.
func worldRanks(j *Job) []int {
	ranks := make([]int, j.NumRanks())
	for i := range ranks {
		ranks[i] = i
	}
	return ranks
}

func TestBuildBcastFlowsReachEveryRank(t *testing.T) {
	j, e, _ := collRig(t)
	ranks := worldRanks(j)
	finals, err := BuildBcastFlows(e, j, ranks, 0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	// A binomial broadcast over n ranks delivers to n-1 of them.
	if len(finals) != len(ranks)-1 {
		t.Fatalf("%d delivery flows, want %d", len(finals), len(ranks)-1)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range finals {
		if !e.Result(id).Done {
			t.Fatal("delivery flow not done")
		}
	}
}

func TestBuildBcastRootValidation(t *testing.T) {
	j, e, _ := collRig(t)
	if _, err := BuildBcastFlows(e, j, worldRanks(j), -1, 8); err == nil {
		t.Fatal("negative root accepted")
	}
	if _, err := BuildBcastFlows(e, j, worldRanks(j), j.NumRanks(), 8); err == nil {
		t.Fatal("out-of-range root accepted")
	}
}

func TestBcastRoundsScaleLogarithmically(t *testing.T) {
	j, _, p := collRig(t)
	run := func(ranks []int) float64 {
		e, _ := netsim.NewEngine(netsim.NewNetwork(j.Torus(), p.LinkBandwidth), p)
		if _, err := BuildBcastFlows(e, j, ranks, 0, 8); err != nil {
			t.Fatal(err)
		}
		mk, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return float64(mk)
	}
	t4 := run([]int{0, 1, 2, 3}) // 2 rounds
	t128 := run(worldRanks(j))   // 7 rounds
	if t128 <= t4 {
		t.Fatal("more participants should take longer")
	}
	// Log scaling: 128 ranks is 7 rounds vs 2 — the ratio should be far
	// below the 32x linear ratio.
	if t128/t4 > 8 {
		t.Fatalf("bcast scaling looks linear: t128/t4 = %.1f", t128/t4)
	}
}

func TestAnalyticBcastPriceIsSane(t *testing.T) {
	// The CollectiveModel price should be within a small factor of the
	// simulated binomial broadcast.
	j, e, p := collRig(t)
	if _, err := BuildBcastFlows(e, j, worldRanks(j), 0, 8); err != nil {
		t.Fatal(err)
	}
	mk, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	m := NewCollectiveModel(j, p)
	priced := float64(m.BcastTime(j.NumRanks(), 8))
	ratio := priced / float64(mk)
	if ratio < 0.3 || ratio > 3 {
		t.Fatalf("analytic bcast %.3g vs simulated %.3g (ratio %.2f)", priced, float64(mk), ratio)
	}
}
