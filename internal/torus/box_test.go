package torus

import (
	"testing"
	"testing/quick"
)

func TestNewBoxValidation(t *testing.T) {
	tor := mira128()
	if _, err := NewBox(tor, Coord{0, 0, 0, 0, 0}, Shape{2, 2, 4, 4, 2}); err != nil {
		t.Errorf("whole-torus box rejected: %v", err)
	}
	if _, err := NewBox(tor, Coord{1, 0, 0, 0, 0}, Shape{2, 1, 1, 1, 1}); err == nil {
		t.Error("box exceeding extent accepted")
	}
	if _, err := NewBox(tor, Coord{0, 0, 0, 0, 0}, Shape{0, 1, 1, 1, 1}); err == nil {
		t.Error("zero-extent box accepted")
	}
	if _, err := NewBox(tor, Coord{0, 0}, Shape{1, 1}); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if _, err := NewBox(tor, Coord{-1, 0, 0, 0, 0}, Shape{1, 1, 1, 1, 1}); err == nil {
		t.Error("negative origin accepted")
	}
}

func TestBoxNodesCountAndMembership(t *testing.T) {
	tor := mira128()
	b := MustNewBox(tor, Coord{0, 0, 1, 1, 0}, Shape{2, 1, 2, 3, 1})
	nodes := b.Nodes(tor)
	if len(nodes) != b.Size() {
		t.Fatalf("Nodes returned %d, want %d", len(nodes), b.Size())
	}
	seen := make(map[NodeID]bool)
	for _, id := range nodes {
		if seen[id] {
			t.Fatalf("duplicate node %d", id)
		}
		seen[id] = true
		if !b.Contains(tor.Coord(id)) {
			t.Fatalf("node %d %v outside box %v", id, tor.Coord(id), b)
		}
	}
	// And everything outside really is outside.
	inCount := 0
	for id := NodeID(0); int(id) < tor.Size(); id++ {
		if b.Contains(tor.Coord(id)) {
			inCount++
		}
	}
	if inCount != b.Size() {
		t.Fatalf("Contains admits %d nodes, want %d", inCount, b.Size())
	}
}

func TestBoxCorners(t *testing.T) {
	tor := mira128()
	b := MustNewBox(tor, Coord{0, 1, 1, 0, 0}, Shape{2, 1, 3, 4, 2})
	if got := b.Corner(); !got.Equal(Coord{0, 1, 1, 0, 0}) {
		t.Errorf("Corner() = %v", got)
	}
}

func TestSplitFactorsBasics(t *testing.T) {
	f, err := SplitFactors(Shape{2, 2, 4, 4, 2}, 8)
	if err != nil {
		t.Fatal(err)
	}
	shape := Shape{2, 2, 4, 4, 2}
	prod := 1
	for i, v := range f {
		prod *= v
		if shape[i]%v != 0 {
			t.Errorf("factor %d does not divide extent in dim %d", v, i)
		}
	}
	if prod != 8 {
		t.Errorf("factors %v multiply to %d, want 8", f, prod)
	}
}

func TestSplitFactorsPrefersLongDims(t *testing.T) {
	f, err := SplitFactors(Shape{2, 2, 4, 4, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The single factor of 2 should land on a longest (extent-4) dim.
	shape := Shape{2, 2, 4, 4, 2}
	for i, v := range f {
		if v == 2 && shape[i] != 4 {
			t.Errorf("factor placed on dim %d (extent %d), want an extent-4 dim", i, shape[i])
		}
	}
}

func TestSplitFactorsInfeasible(t *testing.T) {
	if _, err := SplitFactors(Shape{2, 2, 2}, 3); err == nil {
		t.Error("3-way split of 2x2x2 accepted")
	}
	if _, err := SplitFactors(Shape{2, 2}, 8); err == nil {
		t.Error("8-way split of 2x2 accepted")
	}
	if _, err := SplitFactors(Shape{2, 2}, 0); err == nil {
		t.Error("0-way split accepted")
	}
}

func TestBlocksTileExactly(t *testing.T) {
	tor := mira128()
	pset := WholeBox(tor)
	for _, parts := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		blocks, err := pset.Blocks(parts)
		if err != nil {
			t.Fatalf("Blocks(%d): %v", parts, err)
		}
		if len(blocks) != parts {
			t.Fatalf("Blocks(%d) returned %d blocks", parts, len(blocks))
		}
		seen := make(map[NodeID]int)
		for _, blk := range blocks {
			for _, id := range blk.Nodes(tor) {
				seen[id]++
			}
		}
		if len(seen) != tor.Size() {
			t.Fatalf("Blocks(%d) cover %d nodes, want %d", parts, len(seen), tor.Size())
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("Blocks(%d): node %d covered %d times", parts, id, n)
			}
		}
	}
}

func TestFeasibleBlockCounts(t *testing.T) {
	tor := mira128()
	counts := Box.FeasibleBlockCounts(WholeBox(tor), 128)
	// 2x2x4x4x2 = 2^7, so feasible counts are exactly the powers of two <= 128.
	want := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if len(counts) != len(want) {
		t.Fatalf("FeasibleBlockCounts = %v, want %v", counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("FeasibleBlockCounts = %v, want %v", counts, want)
		}
	}
}

// Property: any feasible block decomposition tiles the box exactly.
func TestPropertyBlocksPartition(t *testing.T) {
	tor := MustNew(Shape{4, 4, 4, 16, 2})
	whole := WholeBox(tor)
	f := func(pRaw uint8) bool {
		parts := int(pRaw)%64 + 1
		blocks, err := whole.Blocks(parts)
		if err != nil {
			return true // infeasible counts are allowed to error
		}
		total := 0
		for _, b := range blocks {
			total += b.Size()
		}
		return total == tor.Size() && len(blocks) == parts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

// forEachShape calls fn for every shape with 1..5 dimensions, extents
// 1..8 and at most 256 nodes.
func forEachShape(fn func(Shape)) {
	var walk func(s Shape)
	walk = func(s Shape) {
		if len(s) > 0 {
			fn(s.Clone())
		}
		if len(s) == 5 {
			return
		}
		for x := 1; x <= 8 && s.Size()*x <= 256; x++ {
			walk(append(s, x))
		}
	}
	walk(nil)
}

// FeasibleBlockCounts and Splittable skip building factors and errors;
// they must still agree with SplitFactors' definition everywhere.
func TestFeasibleBlockCountsMatchSplitFactors(t *testing.T) {
	shapes := 0
	forEachShape(func(s Shape) {
		shapes++
		var want []int
		for p := 0; p <= s.Size()+1; p++ {
			_, err := SplitFactors(s, p)
			if got := Splittable(s, p); got != (err == nil) {
				t.Fatalf("Splittable(%v, %d) = %v, SplitFactors error %v", s, p, got, err)
			}
			if err == nil && p >= 1 {
				want = append(want, p)
			}
		}
		box := Box{Origin: make(Coord, len(s)), Extent: s}
		got := box.FeasibleBlockCounts(256)
		if len(got) != len(want) {
			t.Fatalf("FeasibleBlockCounts(%v) = %v, want %v", s, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("FeasibleBlockCounts(%v) = %v, want %v", s, got, want)
			}
		}
	})
	if shapes < 1000 {
		t.Fatalf("walked %d shapes; the enumeration is broken", shapes)
	}
}

func TestSplittableDoesNotAllocate(t *testing.T) {
	s := Shape{2, 2, 4, 4, 2}
	if n := testing.AllocsPerRun(100, func() {
		for p := 1; p <= 128; p++ {
			Splittable(s, p)
		}
	}); n != 0 {
		t.Fatalf("Splittable allocates %.0f objects per 128 counts", n)
	}
}

// BlockLeads must name the origin corner of every block Blocks builds,
// in Blocks' order.
func TestBlockLeadsMatchBlocks(t *testing.T) {
	tor := MustNew(Shape{4, 4, 4, 16, 2})
	box := MustNewBox(tor, Coord{0, 0, 0, 8, 0}, Shape{4, 4, 4, 8, 2})
	for _, parts := range box.FeasibleBlockCounts(box.Size()) {
		blocks, err := box.Blocks(parts)
		if err != nil {
			t.Fatal(err)
		}
		leads, err := box.BlockLeads(tor, parts)
		if err != nil {
			t.Fatal(err)
		}
		if len(leads) != len(blocks) {
			t.Fatalf("BlockLeads(%d): %d leads for %d blocks", parts, len(leads), len(blocks))
		}
		for i, blk := range blocks {
			if want := tor.ID(blk.Corner()); leads[i] != want {
				t.Fatalf("BlockLeads(%d)[%d] = %d, want %d", parts, i, leads[i], want)
			}
		}
	}
	if _, err := box.BlockLeads(tor, 3); err == nil {
		t.Fatal("BlockLeads accepted an infeasible count")
	}
}
