package torus

import "fmt"

// Box is a rectangular region of a torus: an origin corner plus an extent
// in each dimension. Boxes model psets (the 128-node I/O groupings of the
// BG/Q), application sub-partitions (the contiguous regions hosting each
// physics module of a coupled multiphysics code), and the equal 5-D blocks
// the aggregator-placement algorithm carves a pset into.
//
// A box never wraps: Origin[i] + Extent[i] <= torus extent must hold for
// the boxes this package constructs, and NewBox enforces it. That matches
// the paper's assumption that communicating regions are contiguous.
type Box struct {
	Origin Coord
	Extent Shape
}

// NewBox validates and returns a box within t.
func NewBox(t *Torus, origin Coord, extent Shape) (Box, error) {
	if len(origin) != t.Dims() || len(extent) != t.Dims() {
		return Box{}, fmt.Errorf("torus: box origin/extent dims (%d/%d) do not match torus dims %d",
			len(origin), len(extent), t.Dims())
	}
	for i := range origin {
		if origin[i] < 0 || origin[i] >= t.Extent(i) {
			return Box{}, fmt.Errorf("torus: box origin %v outside torus %v", origin, t.Shape())
		}
		if extent[i] < 1 || origin[i]+extent[i] > t.Extent(i) {
			return Box{}, fmt.Errorf("torus: box extent %v at origin %v exceeds torus %v in dimension %s",
				extent, origin, t.Shape(), DimNames[i])
		}
	}
	return Box{Origin: origin.Clone(), Extent: extent.Clone()}, nil
}

// MustNewBox is NewBox but panics on error.
func MustNewBox(t *Torus, origin Coord, extent Shape) Box {
	b, err := NewBox(t, origin, extent)
	if err != nil {
		panic(err)
	}
	return b
}

// WholeBox returns the box covering all of t.
func WholeBox(t *Torus) Box {
	return Box{Origin: make(Coord, t.Dims()), Extent: t.Shape()}
}

// Size returns the number of nodes in the box.
func (b Box) Size() int { return b.Extent.Size() }

// Contains reports whether coordinate c lies within the box.
func (b Box) Contains(c Coord) bool {
	if len(c) != len(b.Origin) {
		return false
	}
	for i := range c {
		if c[i] < b.Origin[i] || c[i] >= b.Origin[i]+b.Extent[i] {
			return false
		}
	}
	return true
}

// Corner returns the box's origin corner coordinate (a copy).
func (b Box) Corner() Coord { return b.Origin.Clone() }

// OppositeCorner returns the coordinate of the corner diagonally opposite
// the origin.
func (b Box) OppositeCorner() Coord {
	c := make(Coord, len(b.Origin))
	for i := range c {
		c[i] = b.Origin[i] + b.Extent[i] - 1
	}
	return c
}

// Nodes returns the IDs of every node in the box, in row-major order of
// the box-local coordinates. The result is freshly allocated.
func (b Box) Nodes(t *Torus) []NodeID {
	ids := make([]NodeID, 0, b.Size())
	c := b.Origin.Clone()
	for {
		ids = append(ids, t.ID(c))
		// Increment box-local odometer, last dimension fastest.
		i := len(c) - 1
		for ; i >= 0; i-- {
			c[i]++
			if c[i] < b.Origin[i]+b.Extent[i] {
				break
			}
			c[i] = b.Origin[i]
		}
		if i < 0 {
			return ids
		}
	}
}

// String renders the box as "origin+extent", e.g. "(0,0,0,0,0)+2x2x4x4x2".
func (b Box) String() string {
	return fmt.Sprintf("%v+%v", b.Origin, b.Extent)
}

// SplitFactors factors parts into per-dimension divisors f with
// f[0]*f[1]*...*f[L-1] == parts and f[i] dividing extent[i], preferring to
// split the longest dimensions first (which yields the most cubic blocks).
// It returns an error when no such factorization exists. This implements
// the "divide the pset along 5 dimensions by factors na*nb*nc*nd*ne =
// num_agg" step of the paper's Algorithm 2.
func SplitFactors(extent Shape, parts int) ([]int, error) {
	if parts < 1 {
		return nil, fmt.Errorf("torus: parts %d must be >= 1", parts)
	}
	if parts > extent.Size() {
		return nil, fmt.Errorf("torus: cannot split %v (%d nodes) into %d parts", extent, extent.Size(), parts)
	}
	f := make([]int, len(extent))
	for i := range f {
		f[i] = 1
	}
	if prime := split(extent.Clone(), parts, f); prime != 0 {
		return nil, fmt.Errorf("torus: %v has no block decomposition into %d parts (prime %d does not divide any remaining extent)",
			extent, parts, prime)
	}
	return f, nil
}

// Splittable reports whether SplitFactors(extent, parts) succeeds,
// without building the factors or an error: the feasibility test
// Algorithm 2's Init runs for every candidate count.
func Splittable(extent Shape, parts int) bool {
	if parts < 1 || parts > extent.Size() {
		return false
	}
	var buf [MaxDims]int
	return split(append(buf[:0], extent...), parts, nil) == 0
}

// split runs SplitFactors' greedy rule over rem, the remaining extent of
// each dimension, which it divides in place: each prime factor of parts,
// smallest first, goes to the dimension with the largest remaining extent
// it divides, ties to the lowest index. When f is non-nil the prime is
// multiplied into f's entry for that dimension. split returns 0 on
// success, or the first prime no remaining extent admits.
func split(rem []int, parts int, f []int) (failed int) {
	for p := parts; p > 1; {
		prime := smallestPrimeFactor(p)
		best := -1
		for i := range rem {
			if rem[i]%prime != 0 {
				continue
			}
			if best < 0 || rem[i] > rem[best] {
				best = i
			}
		}
		if best < 0 {
			return prime
		}
		if f != nil {
			f[best] *= prime
		}
		rem[best] /= prime
		p /= prime
	}
	return 0
}

func smallestPrimeFactor(n int) int {
	if n%2 == 0 {
		return 2
	}
	for d := 3; d*d <= n; d += 2 {
		if n%d == 0 {
			return d
		}
	}
	return n
}

// Blocks carves the box into parts equal sub-boxes using SplitFactors.
// The blocks are returned in row-major order of their block coordinates
// and tile the box exactly (disjoint, covering).
func (b Box) Blocks(parts int) ([]Box, error) {
	f, err := SplitFactors(b.Extent, parts)
	if err != nil {
		return nil, err
	}
	blockExtent := make(Shape, len(b.Extent))
	for i := range f {
		blockExtent[i] = b.Extent[i] / f[i]
	}
	out := make([]Box, 0, parts)
	idx := make([]int, len(f))
	for {
		origin := make(Coord, len(b.Origin))
		for i := range origin {
			origin[i] = b.Origin[i] + idx[i]*blockExtent[i]
		}
		out = append(out, Box{Origin: origin, Extent: blockExtent.Clone()})
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < f[i] {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			break
		}
	}
	return out, nil
}

// BlockLeads returns the node of each block's origin corner for the
// parts-way split of the box, in the order Blocks returns the blocks,
// without building the blocks. These are Algorithm 2's candidate
// aggregators.
func (b Box) BlockLeads(t *Torus, parts int) ([]NodeID, error) {
	f, err := SplitFactors(b.Extent, parts)
	if err != nil {
		return nil, err
	}
	out := make([]NodeID, 0, parts)
	c := b.Origin.Clone()
	idx := make([]int, len(f))
	for {
		out = append(out, t.ID(c))
		i := len(idx) - 1
		for ; i >= 0; i-- {
			idx[i]++
			c[i] += b.Extent[i] / f[i]
			if idx[i] < f[i] {
				break
			}
			idx[i] = 0
			c[i] = b.Origin[i]
		}
		if i < 0 {
			return out, nil
		}
	}
}

// FeasibleBlockCounts returns, in ascending order, every parts value in
// [1, max] for which the box has an exact block decomposition (the
// paper's list P = {1, 2, 4, ..., 128} for a 128-node pset).
func (b Box) FeasibleBlockCounts(max int) []int {
	var out []int
	for p := 1; p <= max && p <= b.Size(); p++ {
		if Splittable(b.Extent, p) {
			out = append(out, p)
		}
	}
	return out
}
