package mpisim

import (
	"testing"
	"testing/quick"

	"bgqflow/internal/netsim"
	"bgqflow/internal/torus"
)

func job16(t *testing.T) *Job {
	t.Helper()
	j, err := NewJob(torus.MustNew(torus.Shape{2, 2, 4, 4, 2}), 16)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestJobLayout(t *testing.T) {
	j := job16(t)
	if j.NumRanks() != 2048 {
		t.Fatalf("NumRanks = %d, want 2048", j.NumRanks())
	}
	if j.NodeOf(0) != 0 || j.NodeOf(15) != 0 || j.NodeOf(16) != 1 {
		t.Fatal("block rank mapping wrong")
	}
	ranks := j.RanksOn(3)
	if len(ranks) != 16 || ranks[0] != 48 || ranks[15] != 63 {
		t.Fatalf("RanksOn(3) = %v", ranks)
	}
}

func TestNewJobValidation(t *testing.T) {
	if _, err := NewJob(torus.MustNew(torus.Shape{2, 2}), 0); err == nil {
		t.Fatal("0 ranks per node accepted")
	}
}

func TestNodeOfOutOfRangePanics(t *testing.T) {
	j := job16(t)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank accepted")
		}
	}()
	j.NodeOf(j.NumRanks())
}

func TestTreeDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := treeDepth(n); got != want {
			t.Errorf("treeDepth(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCollectiveTimesScaleWithLogP(t *testing.T) {
	j := job16(t)
	m := NewCollectiveModel(j, netsim.DefaultParams())
	w := j.NumRanks()
	if m.AllreduceTime(w, 8) <= m.AllreduceTime(2, 8) {
		t.Fatal("allreduce time should grow with the rank count")
	}
	if m.BcastTime(w, 8) >= m.AllreduceTime(w, 8) {
		t.Fatal("bcast should be cheaper than allreduce")
	}
	if m.BarrierTime(w) <= 0 {
		t.Fatal("barrier should cost time")
	}
}

func TestCollectiveTimesAreNegligible(t *testing.T) {
	// The paper asserts the Init/metadata costs are negligible next to
	// data movement; check an 8-byte allreduce over 2048 ranks costs far
	// less than moving even 1 MB over one link.
	j := job16(t)
	p := netsim.DefaultParams()
	m := NewCollectiveModel(j, p)
	meta := float64(m.AllreduceTime(j.NumRanks(), 8))
	payload := float64(8<<20) / p.PerFlowBandwidth // one rank's worth of sparse data
	if meta > payload/5 {
		t.Fatalf("metadata allreduce %gs not negligible next to an 8MB transfer %gs", meta, payload)
	}
}

func TestAllgatherMovesAllData(t *testing.T) {
	j := job16(t)
	m := NewCollectiveModel(j, netsim.DefaultParams())
	tAll := m.AllgatherTime(4, 1024)
	tB := m.BcastTime(4, 1024)
	if tAll <= tB/2 {
		t.Fatalf("allgather %g should not be far cheaper than bcast %g", tAll, tB)
	}
}

// Property: NodeOf and RanksOn are consistent.
func TestPropertyRankNodeConsistency(t *testing.T) {
	j := job16(t)
	f := func(raw uint16) bool {
		r := int(raw) % j.NumRanks()
		node := j.NodeOf(r)
		for _, rr := range j.RanksOn(node) {
			if rr == r {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
