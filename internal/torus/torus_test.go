package torus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mira128() *Torus { return MustNew(Shape{2, 2, 4, 4, 2}) } // paper's 128-node partition

func TestNewValidation(t *testing.T) {
	if _, err := New(Shape{}); err == nil {
		t.Error("empty shape accepted")
	}
	if _, err := New(Shape{2, 0, 2}); err == nil {
		t.Error("zero extent accepted")
	}
	if _, err := New(Shape{1, 1, 1, 1, 1, 1, 1, 1, 1}); err == nil {
		t.Error("9-D shape accepted")
	}
	if _, err := New(Shape{4, 4, 4, 16, 2}); err != nil {
		t.Errorf("valid 2K-node shape rejected: %v", err)
	}
}

func TestSizeAndDims(t *testing.T) {
	tor := mira128()
	if tor.Size() != 128 {
		t.Errorf("Size() = %d, want 128", tor.Size())
	}
	if tor.Dims() != 5 {
		t.Errorf("Dims() = %d, want 5", tor.Dims())
	}
	if tor.NumTorusLinks() != 128*10 {
		t.Errorf("NumTorusLinks() = %d, want 1280 (10 links per node)", tor.NumTorusLinks())
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{2, 2, 4, 4, 2}).String(); got != "2x2x4x4x2" {
		t.Errorf("Shape.String() = %q", got)
	}
}

func TestParseShape(t *testing.T) {
	s, err := ParseShape("4x4x4x16x2")
	if err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2048 {
		t.Errorf("parsed size = %d, want 2048", s.Size())
	}
	for _, bad := range []string{"", "4x-1x2", "axb", "1x2x3x4x5x6x7x8x9"} {
		if _, err := ParseShape(bad); err == nil {
			t.Errorf("ParseShape(%q) accepted", bad)
		}
	}
}

// An extent with anything but digits in it is malformed, even when a
// number prefixes it: a lenient parse would give one partition several
// spellings.
func TestParseShapeRejectsTrailingGarbage(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Shape
	}{
		{"2x2x4x4x2", Shape{2, 2, 4, 4, 2}},
		{"16", Shape{16}},
		{"2x2x4x4x2abc", nil},
		{"2x2x4x4x2.9", nil},
		{"2x2x4x4x+2", nil},
		{"2x2x4x4x 2", nil},
		{"2x2x4x4x2 ", nil},
		{"2xx2", nil},
		{"2x0", nil},
		{"0x10", nil},
	} {
		got, err := ParseShape(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseShape(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || got.String() != tc.want.String() {
			t.Errorf("ParseShape(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

func TestIDCoordRoundTripExhaustive(t *testing.T) {
	tor := mira128()
	for id := NodeID(0); int(id) < tor.Size(); id++ {
		c := tor.Coord(id)
		if got := tor.ID(c); got != id {
			t.Fatalf("ID(Coord(%d)) = %d", id, got)
		}
	}
}

func TestIDWrapsCoordinates(t *testing.T) {
	tor := mira128()
	a := tor.ID(Coord{0, 0, 0, 0, 0})
	b := tor.ID(Coord{2, 2, 4, 4, 2}) // each component wraps to 0
	if a != b {
		t.Errorf("wrapped coordinate maps to %d, want %d", b, a)
	}
	c := tor.ID(Coord{-1, -1, -1, -1, -1})
	want := tor.ID(Coord{1, 1, 3, 3, 1})
	if c != want {
		t.Errorf("negative coordinate maps to %d, want %d", c, want)
	}
}

func TestNeighborWraps(t *testing.T) {
	tor := mira128()
	origin := tor.ID(Coord{0, 0, 0, 0, 0})
	nb := tor.Neighbor(origin, 2, Minus)
	if got := tor.Coord(nb); !got.Equal(Coord{0, 0, 3, 0, 0}) {
		t.Errorf("Neighbor -C of origin = %v, want (0,0,3,0,0)", got)
	}
	nb2 := tor.Neighbor(nb, 2, Plus)
	if nb2 != origin {
		t.Errorf("+C then -C did not return to origin")
	}
}

func TestDisplacement(t *testing.T) {
	tor := MustNew(Shape{8})
	cases := []struct {
		a, b int
		hops int
		dir  Direction
	}{
		{0, 0, 0, Plus},
		{0, 3, 3, Plus},
		{0, 5, 3, Minus},
		{0, 4, 4, Plus}, // tie: positive direction chosen
		{6, 1, 3, Plus}, // wraps forward
		{1, 6, 3, Minus},
	}
	for _, c := range cases {
		h, d := tor.Displacement(0, c.a, c.b)
		if h != c.hops || d != c.dir {
			t.Errorf("Displacement(%d->%d) = (%d,%v), want (%d,%v)", c.a, c.b, h, d, c.hops, c.dir)
		}
	}
}

func TestHopDistanceSymmetric(t *testing.T) {
	tor := mira128()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		a := NodeID(rng.Intn(tor.Size()))
		b := NodeID(rng.Intn(tor.Size()))
		if tor.HopDistance(a, b) != tor.HopDistance(b, a) {
			t.Fatalf("HopDistance(%d,%d) asymmetric", a, b)
		}
	}
}

func TestHopDistanceCornerToCorner(t *testing.T) {
	tor := mira128()
	first := NodeID(0)
	last := NodeID(tor.Size() - 1)
	// (0,0,0,0,0) -> (1,1,3,3,1): ring distances 1+1+1+1+1 = 5
	// (extent-4 dims have min distance 1 from 0 to 3 going minus).
	if got := tor.HopDistance(first, last); got != 5 {
		t.Errorf("corner-to-corner hops = %d, want 5", got)
	}
}

func TestLinkIDRoundTrip(t *testing.T) {
	tor := mira128()
	seen := make(map[int]bool)
	for id := NodeID(0); int(id) < tor.Size(); id++ {
		for dim := 0; dim < tor.Dims(); dim++ {
			for _, dir := range []Direction{Plus, Minus} {
				l := tor.LinkID(id, dim, dir)
				if l < 0 || l >= tor.NumTorusLinks() {
					t.Fatalf("link ID %d outside range", l)
				}
				if seen[l] {
					t.Fatalf("duplicate link ID %d", l)
				}
				seen[l] = true
				f, dm, dr := tor.LinkFrom(l)
				if f != id || dm != dim || dr != dir {
					t.Fatalf("LinkFrom(LinkID(%d,%d,%v)) = (%d,%d,%v)", id, dim, dir, f, dm, dr)
				}
			}
		}
	}
	if len(seen) != tor.NumTorusLinks() {
		t.Fatalf("enumerated %d links, want %d", len(seen), tor.NumTorusLinks())
	}
}

func TestDimsByExtentDesc(t *testing.T) {
	tor := MustNew(Shape{4, 4, 4, 16, 2})
	got := tor.DimsByExtentDesc()
	want := []int{3, 0, 1, 2, 4} // D(16) first, then A,B,C (ties ascending), E(2) last
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("DimsByExtentDesc() = %v, want %v", got, want)
		}
	}
}

func TestDimsByExtentDescAllEqual(t *testing.T) {
	tor := MustNew(Shape{4, 4, 4})
	got := tor.DimsByExtentDesc()
	for i, d := range []int{0, 1, 2} {
		if got[i] != d {
			t.Fatalf("ties must keep ascending dim order, got %v", got)
		}
	}
}

// Property: ID/Coord are inverse bijections for random shapes.
func TestPropertyIDCoordInverse(t *testing.T) {
	f := func(raw [5]uint8, pick uint16) bool {
		shape := make(Shape, 5)
		for i, r := range raw {
			shape[i] = int(r%4) + 1
		}
		tor := MustNew(shape)
		id := NodeID(int(pick) % tor.Size())
		return tor.ID(tor.Coord(id)) == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Displacement returns the minimal ring distance, and following
// it lands on the target.
func TestPropertyDisplacementMinimal(t *testing.T) {
	f := func(extRaw uint8, aRaw, bRaw uint16) bool {
		ext := int(extRaw%15) + 1
		tor := MustNew(Shape{ext})
		a, b := int(aRaw)%ext, int(bRaw)%ext
		hops, dir := tor.Displacement(0, a, b)
		if hops < 0 || hops > ext/2 {
			return false
		}
		pos := a
		for i := 0; i < hops; i++ {
			pos = tor.Wrap(0, pos+int(dir))
		}
		return pos == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

// Property: triangle inequality for hop distance.
func TestPropertyHopDistanceTriangle(t *testing.T) {
	tor := MustNew(Shape{4, 4, 4, 16, 2})
	f := func(ar, br, cr uint16) bool {
		a := NodeID(int(ar) % tor.Size())
		b := NodeID(int(br) % tor.Size())
		c := NodeID(int(cr) % tor.Size())
		return tor.HopDistance(a, c) <= tor.HopDistance(a, b)+tor.HopDistance(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCoordRoundTrip(b *testing.B) {
	tor := MustNew(Shape{4, 4, 8, 16, 2})
	c := make(Coord, 5)
	for i := 0; i < b.N; i++ {
		id := NodeID(i % tor.Size())
		tor.CoordInto(id, c)
		_ = tor.ID(c)
	}
}
