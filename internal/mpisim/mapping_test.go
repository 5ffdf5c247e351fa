package mpisim

import (
	"testing"
	"testing/quick"

	"bgqflow/internal/torus"
)

func TestDefaultMappingIsBlock(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	j, err := NewJob(tor, 16)
	if err != nil {
		t.Fatal(err)
	}
	if j.Order() != "ABCDET" {
		t.Fatalf("default order %q", j.Order())
	}
	for r := 0; r < j.NumRanks(); r += 97 {
		if j.NodeOf(r) != torus.NodeID(r/16) {
			t.Fatalf("rank %d on node %d, want %d (block mapping)", r, j.NodeOf(r), r/16)
		}
	}
}

func TestTFirstMappingIsRoundRobin(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	j, err := NewJobWithMapping(tor, 4, "TABCDE")
	if err != nil {
		t.Fatal(err)
	}
	// With T slowest, ranks 0..127 land on nodes 0..127 (one per node),
	// then rank 128 wraps back to node 0.
	for r := 0; r < 128; r++ {
		if j.NodeOf(r) != torus.NodeID(r) {
			t.Fatalf("rank %d on node %d, want %d (round-robin)", r, j.NodeOf(r), r)
		}
	}
	if j.NodeOf(128) != 0 {
		t.Fatalf("rank 128 on node %d, want 0", j.NodeOf(128))
	}
}

func TestMappingValidation(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	for _, bad := range []MapOrder{"ABCDE", "ABCDEF", "AABDET", "ABCDEX", "ABCDETT"} {
		if _, err := NewJobWithMapping(tor, 2, bad); err == nil {
			t.Errorf("mapping %q accepted", bad)
		}
	}
	if _, err := NewJobWithMapping(tor, 0, "ABCDET"); err == nil {
		t.Error("zero ranks per node accepted")
	}
	// A BG/Q node runs at most 64 ranks (16 cores x 4 hardware threads);
	// a larger count used to size the rank table before any check.
	if _, err := NewJobWithMapping(tor, maxRanksPerNode, "ABCDET"); err != nil {
		t.Errorf("%d ranks per node rejected: %v", maxRanksPerNode, err)
	}
	for _, huge := range []int{maxRanksPerNode + 1, 1 << 40} {
		if _, err := NewJobWithMapping(tor, huge, "ABCDET"); err == nil {
			t.Errorf("%d ranks per node accepted", huge)
		}
	}
}

func TestMappingLowercaseAccepted(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2}) // 2-D torus: letters A, B, T
	if _, err := NewJobWithMapping(tor, 2, "tab"); err != nil {
		t.Fatalf("lowercase mapping rejected: %v", err)
	}
}

// Property: every mapping is a bijection — each node hosts exactly
// ranksPerNode ranks and every rank has exactly one node.
func TestPropertyMappingBijective(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	orders := []MapOrder{"ABCDET", "TABCDE", "EDCBAT", "TEDCBA", "CTDEAB"}
	f := func(oi uint8, rpnRaw uint8) bool {
		order := orders[int(oi)%len(orders)]
		rpn := int(rpnRaw%4) + 1
		j, err := NewJobWithMapping(tor, rpn, order)
		if err != nil {
			return false
		}
		counts := make(map[torus.NodeID]int)
		for r := 0; r < j.NumRanks(); r++ {
			counts[j.NodeOf(r)]++
		}
		if len(counts) != tor.Size() {
			return false
		}
		for _, c := range counts {
			if c != rpn {
				return false
			}
		}
		// RanksOn is consistent with NodeOf.
		for n := torus.NodeID(0); int(n) < tor.Size(); n += 17 {
			for _, r := range j.RanksOn(n) {
				if j.NodeOf(r) != n {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestMappingChangesDataPlacement(t *testing.T) {
	// The point of mapping: the same rank-indexed burst lands on
	// different nodes under different orders.
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	block, _ := NewJobWithMapping(tor, 16, "ABCDET")
	rr, _ := NewJobWithMapping(tor, 16, "TABCDE")
	// Ranks 0..15: one node under block, 16 nodes under round-robin.
	nodesBlock := map[torus.NodeID]bool{}
	nodesRR := map[torus.NodeID]bool{}
	for r := 0; r < 16; r++ {
		nodesBlock[block.NodeOf(r)] = true
		nodesRR[rr.NodeOf(r)] = true
	}
	if len(nodesBlock) != 1 {
		t.Fatalf("block mapping spread 16 ranks over %d nodes", len(nodesBlock))
	}
	if len(nodesRR) != 16 {
		t.Fatalf("round-robin mapping spread 16 ranks over %d nodes", len(nodesRR))
	}
}

// appendLayout is the layout NewJobWithMapping built before it carved
// the rank lists from one array: the same odometer, each node's list
// grown by append.
func appendLayout(t *testing.T, tor *torus.Torus, k int, order MapOrder) ([]torus.NodeID, [][]int) {
	t.Helper()
	axes, err := order.parse(tor)
	if err != nil {
		t.Fatal(err)
	}
	dims := tor.Dims()
	rankNode := make([]torus.NodeID, tor.Size()*k)
	nodeRanks := make([][]int, tor.Size())
	pos := make([]int, len(axes))
	coord := make(torus.Coord, dims)
	for r := range rankNode {
		for i, axis := range axes {
			if axis < dims {
				coord[axis] = pos[i]
			}
		}
		node := tor.ID(coord)
		rankNode[r] = node
		nodeRanks[node] = append(nodeRanks[node], r)
		for i := len(axes) - 1; i >= 0; i-- {
			pos[i]++
			ext := k
			if axes[i] < dims {
				ext = tor.Extent(axes[i])
			}
			if pos[i] < ext {
				break
			}
			pos[i] = 0
		}
	}
	return rankNode, nodeRanks
}

// The rank lists are carved from one array; NodeOf, RanksOn and
// FirstRankOn must equal the append-built layout under every mapping
// order.
func TestRankListsMatchAppendBuilt(t *testing.T) {
	tor := torus.MustNew(torus.Shape{2, 2, 4, 4, 2})
	var orders []MapOrder
	var permute func(prefix, rest string)
	permute = func(prefix, rest string) {
		if rest == "" {
			orders = append(orders, MapOrder(prefix))
			return
		}
		for i := range rest {
			permute(prefix+rest[i:i+1], rest[:i]+rest[i+1:])
		}
	}
	permute("", "ABCDET")
	if len(orders) != 720 {
		t.Fatalf("%d orders, want 720", len(orders))
	}
	for _, k := range []int{1, 4, 16} {
		for _, order := range orders {
			j, err := NewJobWithMapping(tor, k, order)
			if err != nil {
				t.Fatal(err)
			}
			rankNode, nodeRanks := appendLayout(t, tor, k, order)
			for r, n := range rankNode {
				if j.NodeOf(r) != n {
					t.Fatalf("%s k=%d: rank %d on node %d, want %d", order, k, r, j.NodeOf(r), n)
				}
			}
			for n, want := range nodeRanks {
				got := j.RanksOn(torus.NodeID(n))
				if len(got) != len(want) || j.FirstRankOn(torus.NodeID(n)) != want[0] {
					t.Fatalf("%s k=%d node %d: ranks %v, want %v", order, k, n, got, want)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d node %d: ranks %v, want %v", order, k, n, got, want)
					}
				}
			}
		}
	}
}
