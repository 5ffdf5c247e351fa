// Package torus models k-dimensional torus interconnect topologies, in
// particular the 5-D torus of the IBM Blue Gene/Q. It provides coordinate
// arithmetic, node and directed-link identifiers, minimal-hop ring
// displacement, and rectangular sub-boxes (used for psets and for the 5-D
// block decomposition in the aggregator-placement algorithm).
//
// On the BG/Q the machine is partitioned into non-overlapping rectangular
// submachines, each wired as a torus of its own shape; a Torus value models
// one such partition (dimensions conventionally named A, B, C, D, E).
package torus

import (
	"fmt"
	"strconv"
	"strings"
)

// MaxDims is the largest dimensionality supported. The BG/Q torus is 5-D;
// the package works for any dimensionality from 1 to MaxDims.
const MaxDims = 8

// DimNames holds the conventional BG/Q dimension letters.
var DimNames = [MaxDims]string{"A", "B", "C", "D", "E", "F", "G", "H"}

// Shape is the per-dimension extent of a torus, e.g. {2, 2, 4, 4, 2}.
type Shape []int

// Size returns the number of nodes in a torus of this shape.
func (s Shape) Size() int {
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

// String renders the shape in BG/Q style, e.g. "2x2x4x4x2".
func (s Shape) String() string {
	parts := make([]string, len(s))
	for i, d := range s {
		parts[i] = fmt.Sprint(d)
	}
	return strings.Join(parts, "x")
}

// ParseShape parses a BG/Q style shape string such as "2x2x4x4x2". Each
// extent is a whole decimal number of at least 1 with no sign or other
// characters around it.
func ParseShape(str string) (Shape, error) {
	parts := strings.Split(str, "x")
	if len(parts) == 0 || len(parts) > MaxDims {
		return nil, fmt.Errorf("torus: shape %q must have 1..%d dimensions", str, MaxDims)
	}
	s := make(Shape, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil || d < 1 || p[0] == '+' {
			return nil, fmt.Errorf("torus: bad extent %q in shape %q", p, str)
		}
		s[i] = d
	}
	return s, nil
}

// Coord is a node coordinate; len(Coord) equals the torus dimensionality.
type Coord []int

// Clone returns an independent copy of the coordinate.
func (c Coord) Clone() Coord {
	o := make(Coord, len(c))
	copy(o, c)
	return o
}

// Equal reports whether two coordinates are identical.
func (c Coord) Equal(o Coord) bool {
	if len(c) != len(o) {
		return false
	}
	for i := range c {
		if c[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the coordinate as "(a,b,c,d,e)".
func (c Coord) String() string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// NodeID is a node's linear index within its torus, in row-major order
// (dimension 0 varies slowest).
type NodeID int

// Direction is a hop direction along one dimension: +1 or -1.
type Direction int

const (
	Plus  Direction = +1
	Minus Direction = -1
)

// String renders the direction as "+" or "-".
func (d Direction) String() string {
	if d >= 0 {
		return "+"
	}
	return "-"
}

// Torus is an immutable k-dimensional torus.
type Torus struct {
	shape   Shape
	strides []int
	size    int
}

// New constructs a torus of the given shape. Every extent must be >= 1.
func New(shape Shape) (*Torus, error) {
	if len(shape) < 1 || len(shape) > MaxDims {
		return nil, fmt.Errorf("torus: dimensionality %d outside 1..%d", len(shape), MaxDims)
	}
	for i, d := range shape {
		if d < 1 {
			return nil, fmt.Errorf("torus: extent of dimension %s is %d, must be >= 1", DimNames[i], d)
		}
	}
	t := &Torus{shape: shape.Clone(), strides: make([]int, len(shape))}
	stride := 1
	for i := len(shape) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= shape[i]
	}
	t.size = stride
	return t, nil
}

// MustNew is New but panics on error; for tests and fixed literals.
func MustNew(shape Shape) *Torus {
	t, err := New(shape)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the torus shape.
func (t *Torus) Shape() Shape { return t.shape.Clone() }

// Dims returns the dimensionality.
func (t *Torus) Dims() int { return len(t.shape) }

// Extent returns the length of dimension dim.
func (t *Torus) Extent(dim int) int { return t.shape[dim] }

// Size returns the number of nodes.
func (t *Torus) Size() int { return t.size }

// ID converts a coordinate to its linear node ID. Coordinates are wrapped
// into range, so ID is total on all integer coordinates.
func (t *Torus) ID(c Coord) NodeID {
	if len(c) != len(t.shape) {
		panic(fmt.Sprintf("torus: coordinate has %d dims, torus has %d", len(c), len(t.shape)))
	}
	id := 0
	for i, v := range c {
		id += t.Wrap(i, v) * t.strides[i]
	}
	return NodeID(id)
}

// Coord converts a node ID to its coordinate, allocating the result.
func (t *Torus) Coord(id NodeID) Coord {
	c := make(Coord, len(t.shape))
	t.CoordInto(id, c)
	return c
}

// CoordInto converts a node ID into a caller-provided coordinate buffer.
func (t *Torus) CoordInto(id NodeID, c Coord) {
	if id < 0 || int(id) >= t.size {
		panic(fmt.Sprintf("torus: node ID %d outside [0,%d)", id, t.size))
	}
	rem := int(id)
	for i := range t.shape {
		c[i] = rem / t.strides[i]
		rem %= t.strides[i]
	}
}

// Wrap reduces coordinate value v into [0, extent) for dimension dim.
func (t *Torus) Wrap(dim, v int) int {
	d := t.shape[dim]
	v %= d
	if v < 0 {
		v += d
	}
	return v
}

// Neighbor returns the node one hop from id in the given dimension and
// direction, with wraparound.
func (t *Torus) Neighbor(id NodeID, dim int, dir Direction) NodeID {
	c := t.Coord(id)
	c[dim] = t.Wrap(dim, c[dim]+int(dir))
	return t.ID(c)
}

// Displacement returns the minimal-hop signed displacement from a to b
// along dimension dim on the ring: the hop count and travel direction.
// When both ways around the ring are equally long, the positive direction
// is chosen, making routing deterministic. A zero displacement reports
// (0, Plus).
func (t *Torus) Displacement(dim, a, b int) (hops int, dir Direction) {
	d := t.shape[dim]
	fwd := ((b-a)%d + d) % d // hops going +
	if fwd == 0 {
		return 0, Plus
	}
	bwd := d - fwd // hops going -
	if fwd <= bwd {
		return fwd, Plus
	}
	return bwd, Minus
}

// HopDistance returns the total minimal hop count between two nodes
// (the sum over dimensions of minimal ring distances).
func (t *Torus) HopDistance(a, b NodeID) int {
	ca, cb := t.Coord(a), t.Coord(b)
	total := 0
	for i := range ca {
		h, _ := t.Displacement(i, ca[i], cb[i])
		total += h
	}
	return total
}

// NumTorusLinks returns the number of directed torus links: each node has
// one outgoing link per dimension per direction (2 * dims), matching the
// BG/Q's 10 send units per node for a 5-D torus.
func (t *Torus) NumTorusLinks() int { return t.size * 2 * len(t.shape) }

// LinkID identifies the directed link leaving node `from` along dimension
// dim in direction dir. IDs are dense in [0, NumTorusLinks()).
func (t *Torus) LinkID(from NodeID, dim int, dir Direction) int {
	d := 0
	if dir == Minus {
		d = 1
	}
	return (int(from)*len(t.shape)+dim)*2 + d
}

// LinkFrom decodes a link ID back into (from, dim, dir).
func (t *Torus) LinkFrom(link int) (from NodeID, dim int, dir Direction) {
	d := link & 1
	rest := link >> 1
	dim = rest % len(t.shape)
	from = NodeID(rest / len(t.shape))
	dir = Plus
	if d == 1 {
		dir = Minus
	}
	return from, dim, dir
}

// LinkString renders a link for diagnostics, e.g. "(0,0,1,3,0) -B->".
func (t *Torus) LinkString(link int) string {
	from, dim, dir := t.LinkFrom(link)
	return fmt.Sprintf("%v %s%s->", t.Coord(from), dir, DimNames[dim])
}

// DimsByExtentDesc returns the dimension indices ordered longest extent
// first; ties keep ascending dimension index (a stable, deterministic
// ordering). This is the BG/Q "longest to shortest" dimension routing
// order used by the default deterministic routing algorithm.
func (t *Torus) DimsByExtentDesc() []int {
	order := make([]int, len(t.shape))
	for i := range order {
		order[i] = i
	}
	// Insertion sort: dims is tiny (<= MaxDims).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if t.shape[b] > t.shape[a] || (t.shape[b] == t.shape[a] && b < a) {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	return order
}
