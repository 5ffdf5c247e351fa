package mpisim

import (
	"fmt"
	"strings"

	"bgqflow/internal/torus"
)

// MapOrder is a BG/Q-style rank-mapping string: a permutation of the
// torus dimension letters plus 'T' (the rank-on-node position). The
// rightmost letter varies fastest as the rank increases, so the default
// "ABCDET" places consecutive ranks on the same node first (block
// mapping), while "TABCDE" spreads consecutive ranks round-robin across
// nodes. Mapping is the mechanism the related work (Bhatele et al.)
// tunes; here it determines which node hosts each rank and therefore
// where sparse data sits on the torus.
type MapOrder string

// DefaultMapOrder is the BG/Q default block mapping for a 5-D torus.
const DefaultMapOrder MapOrder = "ABCDET"

// orderFor builds the default order string for an n-dimensional torus.
func orderFor(dims int) MapOrder {
	var b strings.Builder
	for i := 0; i < dims; i++ {
		b.WriteString(torus.DimNames[i])
	}
	b.WriteByte('T')
	return MapOrder(b.String())
}

// parse validates the order against a torus and returns the axis indices
// (0..dims-1 for torus dimensions, dims for T) slowest first.
func (o MapOrder) parse(tor *torus.Torus) ([]int, error) {
	dims := tor.Dims()
	if len(o) != dims+1 {
		return nil, fmt.Errorf("mpisim: mapping %q must have %d letters for a %d-D torus plus T", o, dims, dims)
	}
	axes := make([]int, 0, dims+1)
	seen := make(map[int]bool)
	for _, ch := range strings.ToUpper(string(o)) {
		axis := -1
		if ch == 'T' {
			axis = dims
		} else {
			for d := 0; d < dims; d++ {
				if string(ch) == torus.DimNames[d] {
					axis = d
					break
				}
			}
		}
		if axis < 0 {
			return nil, fmt.Errorf("mpisim: mapping %q has unknown letter %q", o, string(ch))
		}
		if seen[axis] {
			return nil, fmt.Errorf("mpisim: mapping %q repeats %q", o, string(ch))
		}
		seen[axis] = true
		axes = append(axes, axis)
	}
	return axes, nil
}

// maxRanksPerNode is the most ranks a BG/Q node hosts: 16 application
// cores with 4 hardware threads each.
const maxRanksPerNode = 64

// NewJobWithMapping lays out ranksPerNode ranks per node under an
// explicit mapping order.
func NewJobWithMapping(tor *torus.Torus, ranksPerNode int, order MapOrder) (*Job, error) {
	if ranksPerNode < 1 || ranksPerNode > maxRanksPerNode {
		return nil, fmt.Errorf("mpisim: ranks per node %d must be in [1, %d]", ranksPerNode, maxRanksPerNode)
	}
	axes, err := order.parse(tor)
	if err != nil {
		return nil, err
	}
	dims := tor.Dims()
	numRanks := tor.Size() * ranksPerNode
	j := &Job{
		tor:       tor,
		numRanks:  numRanks,
		order:     order,
		rankNode:  make([]torus.NodeID, numRanks),
		nodeRanks: make([][]int, tor.Size()),
	}
	// The odometer covers every (node, T) pair once, so every node hosts
	// exactly ranksPerNode ranks: carve each node's list from one array
	// rather than growing it rank by rank.
	flat := make([]int, numRanks)
	for n := range j.nodeRanks {
		j.nodeRanks[n] = flat[n*ranksPerNode : n*ranksPerNode : (n+1)*ranksPerNode]
	}
	// Odometer over the permuted axes, rightmost (last) fastest.
	extent := func(axis int) int {
		if axis == dims {
			return ranksPerNode
		}
		return tor.Extent(axis)
	}
	pos := make([]int, len(axes))
	coord := make(torus.Coord, dims)
	for r := 0; r < numRanks; r++ {
		for i, axis := range axes {
			if axis < dims {
				coord[axis] = pos[i]
			}
		}
		node := tor.ID(coord)
		j.rankNode[r] = node
		j.nodeRanks[node] = append(j.nodeRanks[node], r)
		// Increment the odometer.
		for i := len(axes) - 1; i >= 0; i-- {
			pos[i]++
			if pos[i] < extent(axes[i]) {
				break
			}
			pos[i] = 0
		}
	}
	return j, nil
}

// Order reports the job's mapping order.
func (j *Job) Order() MapOrder { return j.order }
